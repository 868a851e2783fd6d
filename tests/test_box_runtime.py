"""Tests for the functional agg-box runtime."""

import pytest

from repro.aggbox.box import AggBoxRuntime, AppBinding
from repro.aggbox.functions import SumFunction, TopKFunction
from repro.wire.framing import frame
from repro.wire.records import (
    SearchResult,
    decode_search_results,
    encode_search_results,
)
from repro.wire.serializer import WireError, write_float
from tests.codecs import read_float


def float_binding(app="sum"):
    return AppBinding(
        app=app,
        function=SumFunction(),
        deserialise=lambda b: read_float(b)[0],
        serialise=write_float,
    )


def topk_binding(k=3):
    return AppBinding(
        app="solr",
        function=TopKFunction(k=k),
        deserialise=decode_search_results,
        serialise=encode_search_results,
    )


def make_box(*bindings):
    box = AggBoxRuntime("box:test")
    for binding in bindings or (float_binding(),):
        box.register_app(binding)
    return box


class TestRegistration:
    def test_apps_listed(self):
        box = make_box(float_binding("a"), float_binding("b"))
        assert sorted(box._apps) == ["a", "b"]

    def test_duplicate_rejected(self):
        box = make_box()
        with pytest.raises(ValueError):
            box.register_app(float_binding())

    def test_unknown_app_rejected(self):
        box = make_box()
        with pytest.raises(KeyError):
            box.submit_partial("ghost", "r", "w0", 1.0)

    def test_binding_accessor(self):
        box = make_box()
        assert box.binding("sum").app == "sum"


class TestPartialCollection:
    def test_emits_when_expected_count_reached(self):
        box = make_box()
        box.announce("sum", "r1", expected=3)
        assert box.submit_partial("sum", "r1", "w0", 1.0) is None
        assert box.submit_partial("sum", "r1", "w1", 2.0) is None
        ready = box.submit_partial("sum", "r1", "w2", 3.0)
        assert ready is not None
        assert ready.value == 6.0
        assert set(ready.sources) == {"w0", "w1", "w2"}

    def test_no_emit_without_announcement(self):
        box = make_box()
        assert box.submit_partial("sum", "r1", "w0", 1.0) is None
        assert box.pending_requests()

    def test_announcement_after_partials(self):
        box = make_box()
        box.submit_partial("sum", "r1", "w0", 1.0)
        box.announce("sum", "r1", expected=1)
        # Completion is checked on the next submission or flush.
        ready = box.flush("sum", "r1")
        assert ready is not None and ready.value == 1.0

    def test_conflicting_announcements_rejected(self):
        box = make_box()
        box.announce("sum", "r1", expected=2)
        with pytest.raises(ValueError):
            box.announce("sum", "r1", expected=3)

    def test_duplicate_source_dropped(self):
        box = make_box()
        box.announce("sum", "r1", expected=2)
        box.submit_partial("sum", "r1", "w0", 1.0)
        assert box.submit_partial("sum", "r1", "w0", 99.0) is None
        ready = box.submit_partial("sum", "r1", "w1", 2.0)
        assert ready.value == 3.0

    def test_requests_are_isolated(self):
        box = make_box()
        box.announce("sum", "r1", expected=1)
        box.announce("sum", "r2", expected=1)
        first = box.submit_partial("sum", "r1", "w0", 5.0)
        second = box.submit_partial("sum", "r2", "w0", 7.0)
        assert first.value == 5.0
        assert second.value == 7.0


class TestStreamingChunks:
    def test_chunked_delivery(self):
        box = make_box(topk_binding())
        box.announce("solr", "r", expected=2)
        payload_a = frame(encode_search_results([SearchResult(1, 9.0)]))
        payload_b = frame(encode_search_results([SearchResult(2, 5.0)]))
        # Deliver byte by byte.
        for byte in payload_a:
            box.submit_chunk("solr", "r", "w0", bytes([byte]))
        ready = None
        for byte in payload_b:
            out = box.submit_chunk("solr", "r", "w1", bytes([byte]))
            if out is not None:
                ready = out
        assert ready is not None
        assert [r.doc_id for r in ready.value] == [1, 2]

    def test_partial_frame_is_held_until_it_completes(self):
        box = make_box(topk_binding())
        box.announce("solr", "r", expected=2)
        payload_a = frame(encode_search_results([SearchResult(1, 9.0)]))
        payload_b = frame(encode_search_results([SearchResult(2, 5.0)]))
        assert box.partial_streams() == []
        box.submit_chunk("solr", "r", "w0", payload_a[:4])
        box.submit_chunk("solr", "r", "w1", payload_b)  # whole: never held
        assert box.partial_streams() == [("solr", "r", "w0")]
        box.submit_chunk("solr", "r", "w0", payload_a[4:-1])
        assert box.partial_streams() == [("solr", "r", "w0")]
        ready = box.submit_chunk("solr", "r", "w0", payload_a[-1:])
        assert [r.doc_id for r in ready.value] == [1, 2]
        assert box.partial_streams() == []

    def test_stream_with_a_second_frame_started_stays_held(self):
        box = make_box()
        box.announce("sum", "r", expected=1)
        one, two = frame(write_float(1.0)), frame(write_float(2.0))
        ready = box.submit_chunk("sum", "r", "w0", one + two[:3])
        assert ready.value == 1.0
        assert box.partial_streams() == [("sum", "r", "w0")]
        # The rest arrives: a resend from a processed source, dropped
        # by submit_partial, but the stream is drained and released.
        assert box.submit_chunk("sum", "r", "w0", two[3:]) is None
        assert box.partial_streams() == []

    def test_poisoned_stream_is_dropped_not_buffered(self):
        """A malformed length prefix raises on arrival and the box lets
        go of the stream; it used to swallow every later chunk."""
        box = make_box()
        box.announce("sum", "r", expected=2)
        box.submit_chunk("sum", "r", "w0", b"\xff" * 9)   # may still end
        assert box.partial_streams() == [("sum", "r", "w0")]
        with pytest.raises(WireError, match="longer than 10 bytes"):
            box.submit_chunk("sum", "r", "w0", b"\xff\xff")
        assert box.partial_streams() == []
        # The source's next delivery starts on a clean stream.
        assert box.submit_chunk("sum", "r", "w0",
                                frame(write_float(1.0))) is None
        ready = box.submit_chunk("sum", "r", "w1", frame(write_float(2.0)))
        assert ready.value == 3.0
        assert box.partial_streams() == []

    def test_partial_ahead_of_the_poison_is_still_counted(self):
        """A whole frame in the same chunk as a malformed prefix reaches
        the aggregate; the stream is dropped on the chunk after it."""
        box = make_box()
        box.announce("sum", "r", expected=2)
        assert box.submit_chunk(
            "sum", "r", "w0", frame(write_float(1.0)) + b"\xff" * 11) is None
        assert box.partial_streams() == [("sum", "r", "w0")]
        with pytest.raises(WireError, match="longer than 10 bytes"):
            box.submit_chunk("sum", "r", "w0", b"\x01")
        assert box.partial_streams() == []
        ready = box.submit_chunk("sum", "r", "w1", frame(write_float(2.0)))
        assert ready.value == 3.0

    def test_payload_roundtrips_through_serialiser(self):
        box = make_box(topk_binding(k=1))
        box.announce("solr", "r", expected=1)
        payload = frame(encode_search_results(
            [SearchResult(7, 3.5, "snip")]
        ))
        ready = box.submit_chunk("solr", "r", "w0", payload)
        assert decode_search_results(ready.payload) == \
            [SearchResult(7, 3.5, "snip")]


class TestFlushAndRecovery:
    def test_flush_aggregates_available_results(self):
        """Straggler handling: aggregate what arrived (§3.1)."""
        box = make_box()
        box.announce("sum", "r", expected=3)
        box.submit_partial("sum", "r", "w0", 1.0)
        box.submit_partial("sum", "r", "w1", 2.0)
        ready = box.flush("sum", "r")
        assert ready.value == 3.0

    def test_flush_empty_request_is_none(self):
        box = make_box()
        assert box.flush("sum", "nothing") is None

    def test_last_processed_supports_dedup(self):
        box = make_box()
        box.announce("sum", "r", expected=2)
        box.submit_partial("sum", "r", "w0", 1.0)
        box.submit_partial("sum", "r", "w1", 2.0)
        assert set(box.last_processed("sum", "r")) == {"w0", "w1"}
        # A recovery resend from an already-processed source is dropped.
        assert box.submit_partial("sum", "r", "w0", 1.0) is None

    def test_read_only_accessors_do_not_allocate(self):
        """Asking about a request the box never saw used to create its
        state: one post-mortem probe re-leaked what the request freed."""
        box = make_box()
        assert box.has_source("sum", "ghost-1", "w0") is False
        assert box.last_processed("sum", "ghost-2") == []
        assert box.pending_sources("sum", "ghost-3") == []
        assert box.pending_requests() == []

    def test_announce_validation(self):
        box = make_box()
        with pytest.raises(ValueError):
            box.announce("sum", "r", expected=0)


class TestRelease:
    """``release`` ends a request on this box, however far it got."""

    def test_completed_request_has_nothing_to_discard(self):
        box = make_box()
        box.announce("sum", "r", expected=2)
        box.submit_partial("sum", "r", "w0", 1.0)
        assert box.submit_partial("sum", "r", "w1", 2.0).value == 3.0
        assert box.release("sum", "r") == 0
        assert box.last_processed("sum", "r") == []
        # The key is free: the next request under it starts from nothing.
        box.announce("sum", "r", expected=1)
        assert box.submit_partial("sum", "r", "w0", 5.0).value == 5.0

    def test_unknown_request_is_a_no_op(self):
        box = make_box()
        assert box.release("sum", "ghost") == 0
        assert box.pending_requests() == []

    def test_buffered_partials_are_discarded(self):
        box = make_box()
        box.announce("sum", "dead", expected=5)
        box.announce("sum", "live", expected=2)
        for i in range(4):
            box.submit_partial("sum", "dead", f"w{i}", 1.0)
        assert box.pending_count() == 4
        assert box.release("sum", "dead") == 4
        assert box.pending_count() == 0
        # Nothing of the dead request leaks into the live one.
        box.submit_partial("sum", "live", "w0", 10.0)
        assert box.submit_partial("sum", "live", "w1", 20.0).value == 30.0

    def test_half_received_frames_go_too(self):
        box = make_box()
        box.announce("sum", "dead", expected=4)
        box.announce("sum", "other", expected=2)
        box.submit_partial("sum", "dead", "w0", 1.0)
        box.submit_partial("sum", "dead", "w1", 1.0)
        assert box.flush("sum", "dead").value == 2.0  # straggler delta
        box.submit_partial("sum", "dead", "w2", 1.0)
        box.submit_chunk("sum", "dead", "w3", frame(write_float(1.0))[:3])
        box.submit_chunk("sum", "other", "w0", frame(write_float(1.0))[:3])
        assert box.release("sum", "dead") == 1
        assert box.partial_streams() == [("sum", "other", "w0")]
