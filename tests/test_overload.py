"""Unit tests for what a box buffers and what the health feed says.

A box holds one request's fan-in until it emits and forgets it on
``release``; nothing bounds or sheds the buffer.  What remains to pin:
straggler ``flush`` deltas stay exact and duplicate-suppressed, and the
platform's health feed reports ``failed`` over whatever else it would
say, until recovery.
"""

import itertools

from repro.aggbox.box import AggBoxRuntime, AppBinding
from repro.aggbox.functions import SumFunction
from repro.aggbox.overload import FAILED, HEALTHY
from repro.aggregation import deploy_boxes
from repro.core import NetAggPlatform
from repro.topology import ThreeTierParams, three_tier
from repro.wire.serializer import read_float, write_float


def make_box():
    box = AggBoxRuntime("box:test")
    box.register_app(AppBinding(
        app="sum", function=SumFunction(),
        deserialise=lambda b: read_float(b)[0],
        serialise=write_float,
    ))
    return box


def make_platform():
    topo = three_tier(ThreeTierParams(n_pods=2, tors_per_pod=2,
                                      aggrs_per_pod=2, n_cores=2,
                                      hosts_per_tor=4))
    deploy_boxes(topo)
    platform = NetAggPlatform(topo)
    platform.register_app("sum", SumFunction(), write_float,
                          lambda b: read_float(b)[0])
    return platform


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


class TestBoxHealth:
    def test_fail_from_any_state_and_recover(self):
        platform = make_platform()
        box_id = sorted(platform.health_report())[0]
        platform.execute_request("sum", "r0", "host:0",
                                 [("host:4", 1.0), ("host:8", 2.0)])
        platform.advance_clock(platform.clock + 5.0)
        # The box has gone quiet: still healthy, there is no staleness
        # verdict.  Failing it twice in a row is still one failure.
        assert platform.health_report()[box_id].state == HEALTHY
        for repeat in (1, 2):
            for _ in range(repeat):
                platform.fail_box(box_id)
            assert platform.health_report()[box_id].state == FAILED
            platform.recover_box(box_id)
            assert platform.health_report()[box_id].state == HEALTHY


class TestHeartbeat:
    def test_unbounded_box_always_healthy(self):
        platform = make_platform()
        box_id = sorted(platform.health_report())[0]
        runtime = platform.box_runtime(box_id)
        for i in range(100):
            runtime.submit_partial("sum", "r", f"w{i}", 1.0)
        assert runtime.pending_count() == 100
        beat = platform.health_report()[box_id]
        assert (beat.box_id, beat.at, beat.state) \
            == (box_id, platform.clock, HEALTHY)

    def test_mark_failed_and_recovered(self):
        platform = make_platform()
        box_id = sorted(platform.health_report())[-1]
        platform.fail_box(box_id)
        assert platform.health_report()[box_id].state == FAILED
        assert platform.failed_boxes() == {box_id}
        platform.recover_box(box_id)
        assert platform.health_report()[box_id].state == HEALTHY
        assert platform.failed_boxes() == set()
