"""Unit tests for agg-box overload control: policy, health, partial flushes."""

import pytest

from repro.aggbox.box import AggBoxRuntime, AppBinding
from repro.aggbox.functions import SumFunction
from repro.aggbox.overload import (
    FAILED,
    HEALTHY,
    PRESSURED,
    SHEDDING,
    BoxHealth,
    HealthTransition,
    OverloadPolicy,
    assert_legal_transitions,
)
from repro.wire.serializer import read_float, write_float


def make_box(policy):
    box = AggBoxRuntime("box:test", policy=policy)
    box.register_app(AppBinding(
        app="sum", function=SumFunction(),
        deserialise=lambda b: read_float(b)[0],
        serialise=write_float,
    ))
    return box


class TestOverloadPolicy:
    def test_defaults(self):
        policy = OverloadPolicy()
        assert policy.max_pending == 64
        assert policy.high_pending == 48
        assert policy.low_pending == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            OverloadPolicy(max_pending=0)
        with pytest.raises(ValueError):
            OverloadPolicy(low_watermark=0.8, high_watermark=0.5)
        with pytest.raises(ValueError):
            OverloadPolicy(low_watermark=0.0)

    def test_watermarks_never_collapse_to_zero(self):
        policy = OverloadPolicy(max_pending=1, low_watermark=0.1,
                                high_watermark=0.2)
        assert policy.high_pending == 1
        assert policy.low_pending == 0


class TestBoxHealth:
    def test_pressure_cycle(self):
        policy = OverloadPolicy(max_pending=4, low_watermark=0.25,
                                high_watermark=0.75)
        health = BoxHealth(policy)
        assert health.observe(0) == HEALTHY
        assert health.observe(3) == PRESSURED      # >= high watermark (3)
        assert health.observe(4) == SHEDDING       # queue full
        # Hysteresis: shedding persists until below the high watermark.
        assert health.observe(3) == SHEDDING
        assert health.observe(2) == PRESSURED
        assert health.observe(1) == PRESSURED      # >= low watermark (1)
        assert health.observe(0) == HEALTHY
        assert_legal_transitions(health.transitions)

    def test_healthy_jumps_through_pressured_when_full(self):
        health = BoxHealth(OverloadPolicy(max_pending=4))
        health.observe(4)
        assert health.state == SHEDDING
        # The trace records the intermediate pressured hop.
        assert [(t.frm, t.to) for t in health.transitions] == [
            (HEALTHY, PRESSURED), (PRESSURED, SHEDDING)]

    def test_fail_from_any_state_and_recover(self):
        for pending in (0, 3, 4):
            health = BoxHealth(OverloadPolicy(max_pending=4))
            health.observe(pending)
            health.fail(at=1.0)
            assert health.state == FAILED
            assert health.observe(0) == FAILED    # stays down
            health.recover(at=2.0)
            assert health.state == HEALTHY
            assert_legal_transitions(health.transitions)

    def test_illegal_transition_raises(self):
        health = BoxHealth(OverloadPolicy(max_pending=4))
        health.observe(4)
        assert health.state == SHEDDING
        with pytest.raises(RuntimeError):
            health.recover()  # shedding -> healthy skips pressured

    def test_assert_legal_transitions_rejects_gap(self):
        trace = [
            HealthTransition(at=0.0, frm=HEALTHY, to=PRESSURED),
            HealthTransition(at=1.0, frm=SHEDDING, to=PRESSURED),
        ]
        with pytest.raises(AssertionError):
            assert_legal_transitions(trace)

    def test_assert_legal_transitions_rejects_illegal_hop(self):
        trace = [HealthTransition(at=0.0, frm=HEALTHY, to=SHEDDING)]
        with pytest.raises(AssertionError):
            assert_legal_transitions(trace)


class TestFlush:
    def test_in_progress_request_flushes_instead(self):
        box = make_box(OverloadPolicy(max_pending=2))
        box.announce("sum", "r1", 4)
        box.submit_partial("sum", "r1", "w0", 1.0)
        box.submit_partial("sum", "r1", "w1", 2.0)
        # The overflowing request's own partials must not be lost:
        # pressure is relieved by a partial flush, then the submit lands.
        assert box.submit_partial("sum", "r1", "w2", 4.0) is None
        deltas = box.drain_shed()
        assert [d.value for d in deltas] == [3.0]
        assert box.flushes == 1
        # Expected dropped by the two flushed partials: one more finishes.
        emitted = box.submit_partial("sum", "r1", "w3", 8.0)
        assert emitted is not None
        assert emitted.value + deltas[0].value == 15.0

    def test_overflow_partially_flushes_most_loaded(self):
        box = make_box(OverloadPolicy(max_pending=3))
        box.announce("sum", "r1", 4)
        box.announce("sum", "r2", 2)
        box.submit_partial("sum", "r1", "w0", 1.0)
        box.submit_partial("sum", "r1", "w1", 2.0)
        box.submit_partial("sum", "r2", "w0", 16.0)
        # Overflow: r1 (most loaded) flushes its two partials as a delta.
        assert box.submit_partial("sum", "r2", "w1", 32.0) is not None
        deltas = box.drain_shed()
        assert [d.request_id for d in deltas] == ["r1"]
        assert deltas[0].value == 3.0
        assert deltas[0].sources == ["w0", "w1"]
        # r1 still completes exactly from the remaining partials.
        assert box.submit_partial("sum", "r1", "w2", 4.0) is None
        emitted = box.submit_partial("sum", "r1", "w3", 8.0)
        assert emitted.value == 12.0
        assert deltas[0].value + emitted.value == 15.0

    def test_flushed_sources_are_duplicate_suppressed(self):
        box = make_box(OverloadPolicy(max_pending=2))
        box.announce("sum", "r1", 4)
        box.submit_partial("sum", "r1", "w0", 1.0)
        box.submit_partial("sum", "r1", "w1", 2.0)
        box.submit_partial("sum", "r1", "w2", 4.0)   # triggers the flush
        assert box.last_processed("sum", "r1") == ["w0", "w1"]
        # A failure-recovery resend of a flushed source is dropped.
        assert box.submit_partial("sum", "r1", "w0", 999.0) is None
        # One partial outstanding (w3 never arrives, e.g. its worker
        # degraded to the master): adjusting it away completes the rest.
        emitted = box.adjust_expected("sum", "r1", -1)
        assert emitted is not None
        assert emitted.value == 4.0

    def test_relieve_on_empty_app_returns_none(self):
        box = make_box(OverloadPolicy(max_pending=2))
        assert box.relieve("sum") is None


class TestHeartbeat:
    def test_reports_queue_and_counters(self):
        box = make_box(OverloadPolicy(max_pending=2))
        box.clock = 1.5
        box.announce("sum", "r1", 4)
        box.submit_partial("sum", "r1", "w0", 1.0)
        box.submit_partial("sum", "r1", "w1", 2.0)
        box.submit_partial("sum", "r1", "w2", 4.0)
        beat = box.heartbeat()
        assert beat.box_id == "box:test"
        assert beat.at == 1.5
        # The flush relieved the full queue: one partial buffered again,
        # which sits at the high watermark -> pressured (hysteresis).
        assert beat.state == PRESSURED
        assert beat.pending == 1
        assert beat.max_pending == 2
        assert beat.flushes == 1

    def test_unbounded_box_always_healthy(self):
        box = make_box(None)
        for i in range(100):
            box.submit_partial("sum", "r", f"w{i}", 1.0)
        assert box.health == HEALTHY
        assert box.heartbeat().max_pending == 0
        assert box.health_transitions == []

    def test_mark_failed_and_recovered(self):
        box = make_box(OverloadPolicy(max_pending=2))
        box.mark_failed()
        assert box.health == FAILED
        box.mark_recovered()
        assert box.health == HEALTHY
        assert_legal_transitions(box.health_transitions)
