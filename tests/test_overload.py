"""Unit tests for what a box buffers.

A box holds one request's fan-in until it emits and forgets it on
``release``; nothing bounds or sheds the buffer.  What remains to pin:
straggler ``flush`` deltas stay exact and duplicate-suppressed.
"""

import itertools

from repro.aggbox.box import AggBoxRuntime, AppBinding
from repro.aggbox.functions import SumFunction
from repro.wire.serializer import write_float
from tests.codecs import read_float


def make_box():
    box = AggBoxRuntime("box:test")
    box.register_app(AppBinding(
        app="sum", function=SumFunction(),
        deserialise=lambda b: read_float(b)[0],
        serialise=write_float,
    ))
    return box


class TestArrivalOrder:
    def test_every_interleaving_of_two_requests_is_exact(self):
        ops = [("r1", "w0", 1.0), ("r1", "w1", 2.0), ("r1", "w2", 4.0),
               ("r2", "w0", 16.0), ("r2", "w1", 32.0)]
        for order in itertools.permutations(ops):
            box = make_box()
            box.announce("sum", "r1", 3)
            box.announce("sum", "r2", 2)
            emitted = {}
            for rid, source, value in order:
                ready = box.submit_partial("sum", rid, source, value)
                if ready is not None:
                    emitted[ready.request_id] = ready.value
            assert emitted == {"r1": 7.0, "r2": 48.0}
            assert box.pending_count() == 0


class TestFlush:
    def test_in_progress_request_flushes_instead(self):
        box = make_box()
        box.announce("sum", "r1", 4)
        box.submit_partial("sum", "r1", "w0", 1.0)
        box.submit_partial("sum", "r1", "w1", 2.0)
        # A straggler timeout flushes what arrived as a delta...
        first = box.flush("sum", "r1")
        assert first.value == 3.0
        # ...and the late partials flush as a second delta, never
        # re-counting the first two.
        assert box.submit_partial("sum", "r1", "w2", 4.0) is None
        assert box.submit_partial("sum", "r1", "w3", 8.0) is None
        second = box.flush("sum", "r1")
        assert second.value == 12.0
        assert first.value + second.value == 15.0
        assert box.flush("sum", "r1") is None

    def test_flushed_sources_are_duplicate_suppressed(self):
        box = make_box()
        box.announce("sum", "r1", 4)
        box.submit_partial("sum", "r1", "w0", 1.0)
        box.submit_partial("sum", "r1", "w1", 2.0)
        box.flush("sum", "r1")
        assert box.last_processed("sum", "r1") == ["w0", "w1"]
        # A failure-recovery resend of a flushed source is dropped.
        assert box.submit_partial("sum", "r1", "w0", 999.0) is None
        box.submit_partial("sum", "r1", "w2", 4.0)
        assert box.flush("sum", "r1").value == 4.0
