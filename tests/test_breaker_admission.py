"""Unit and integration tests: circuit breakers and admission control
-- the shim half of the overload-control plane."""

import tracemalloc

import pytest

from repro.aggbox.functions import SumFunction
from repro.aggregation import deploy_boxes
from repro.core import (
    AdmissionController,
    AdmissionNack,
    BreakerBoard,
    CircuitBreaker,
    NetAggPlatform,
    TokenBucket,
)
from repro.core.breaker import (
    CLOSED,
    FAILURE_THRESHOLD,
    HALF_OPEN,
    OPEN,
    RESET_TIMEOUT,
    BreakerTransition,
    assert_legal_breaker_transitions,
)
from repro.core.admission import NACK_WINDOW, RATE_LIMIT
from repro.faults import (
    BOX_CRASH,
    BOX_RECOVER,
    FaultEvent,
    FaultSchedule,
    PlatformFaultInjector,
)
from repro.serve.service import TenantPolicy
from repro.topology import ThreeTierParams, three_tier
from repro.wire.serializer import write_float

SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=4
)
from tests.codecs import read_float
from tests.health import health_report

PARTIALS = [("host:4", 1.0), ("host:8", 2.0), ("host:12", 4.0),
            ("host:15", 8.0)]
TOTAL = 15.0


def make_platform(schedule=None, breakers=False, admission=None):
    topo = three_tier(SMALL)
    deploy_boxes(topo)
    faults = PlatformFaultInjector(schedule) if schedule is not None \
        else None
    platform = NetAggPlatform(topo, faults=faults, breakers=breakers,
                              admission=admission)
    platform.register_app("sum", SumFunction(), write_float,
                          lambda b: read_float(b)[0])
    return platform


# ---------------------------------------------------------------------------
# TokenBucket / AdmissionController


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=3.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)        # burst exhausted
        assert not bucket.try_take(0.4)        # 0.8 tokens < 1
        assert bucket.try_take(0.5)            # exactly 1 token refilled
        assert bucket.available(10.0) == 3.0   # capped at burst

    def test_clock_never_runs_backwards(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.try_take(5.0)
        assert not bucket.try_take(4.0)  # stale timestamp: no refill

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=-1.0)


def controller(rate, burst):
    """An admission controller giving every tenant one policy."""
    policy = TenantPolicy(rate=rate, burst=burst)
    return AdmissionController(lambda tenant: policy)


class TestAdmissionController:
    def test_rate_limit_nack_after_burst(self):
        ctl = controller(rate=1.0, burst=2.0)
        ctl.admit("solr", 0.0)
        ctl.admit("solr", 0.0)
        with pytest.raises(AdmissionNack) as err:
            ctl.admit("solr", 0.0)
        assert err.value.reason == RATE_LIMIT
        assert ctl.admitted == 2
        assert [n.reason for n in ctl.nacks] == [RATE_LIMIT]
        ctl.admit("solr", 1.0)  # refilled

    def test_tenants_have_independent_buckets(self):
        ctl = controller(rate=1.0, burst=1.0)
        ctl.admit("solr", 0.0)
        ctl.admit("hadoop", 0.0)
        with pytest.raises(AdmissionNack):
            ctl.admit("solr", 0.0)

    def test_policy_validation(self):
        """``policy_for`` may return any object with ``rate`` and
        ``burst``; the tenant's bucket still refuses a non-positive
        one when it is created."""
        class Policy:
            rate, burst = 0.0, 1.0

        ctl = AdmissionController(lambda tenant: Policy())
        with pytest.raises(ValueError):
            ctl.admit("solr", 0.0)

    def test_nack_log_is_bounded(self):
        """A service refuses for as long as it runs: the log keeps the
        last NACK_WINDOW refusals and the total is a count."""
        ctl = controller(rate=1.0, burst=1.0)
        ctl.admit("solr", 0.0)
        refusals = NACK_WINDOW + 10_000
        tracemalloc.start()
        try:
            for _ in range(NACK_WINDOW):
                with pytest.raises(AdmissionNack):
                    ctl.admit("solr", 0.0)
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(refusals - NACK_WINDOW):
                with pytest.raises(AdmissionNack):
                    ctl.admit("solr", 0.0)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ctl.nacks) == NACK_WINDOW
        assert ctl.refused == refusals and ctl.admitted == 1
        # 10,000 more refusals leave the controller's memory flat (one
        # record each was ~110 bytes: about 1 MB).
        assert after - before < 64 * 1024, after - before


# ---------------------------------------------------------------------------
# CircuitBreaker


def trip(breaker, at=0.0):
    """Fail ``breaker`` open at ``at``."""
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure(at)
    assert breaker.state == OPEN


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        assert FAILURE_THRESHOLD == 3
        breaker = CircuitBreaker("b")
        breaker.record_failure(0.1)
        breaker.record_failure(0.2)
        assert breaker.state == CLOSED
        breaker.record_failure(0.3)
        assert breaker.state == OPEN
        assert not breaker.allow(0.4)

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker("b")
        breaker.record_failure(0.1)
        breaker.record_failure(0.2)
        breaker.record_success(0.3)
        breaker.record_failure(0.4)
        breaker.record_failure(0.5)
        assert breaker.state == CLOSED

    def test_half_open_probe_closes_on_success(self):
        assert RESET_TIMEOUT == 0.5
        breaker = CircuitBreaker("b")
        trip(breaker)
        assert not breaker.allow(0.4)
        assert breaker.allow(0.5)              # reset timeout elapsed
        assert breaker.state == HALF_OPEN
        breaker.record_success(0.6)
        assert breaker.state == CLOSED

    def test_half_open_probe_reopens_on_failure(self):
        breaker = CircuitBreaker("b")
        trip(breaker)
        assert breaker.allow(0.5)
        breaker.record_failure(0.6)
        assert breaker.state == OPEN
        assert not breaker.allow(1.0)          # timeout restarted at 0.6
        assert breaker.allow(1.1)

    def test_transitions_recorded_and_legal(self):
        board = BreakerBoard()
        trip(board.breaker("b1"))
        trip(board.breaker("b2"))
        assert board.breaker("b1").allow(0.7)
        board.breaker("b1").record_success(0.8)
        trace = board.transitions()
        assert [(t.at, t.target) for t in trace] == sorted(
            (t.at, t.target) for t in trace)
        assert_legal_breaker_transitions(trace)
        assert board.states() == {"b1": CLOSED, "b2": OPEN}

    def test_assert_legal_rejects_bad_trace(self):
        with pytest.raises(AssertionError):
            assert_legal_breaker_transitions([
                BreakerTransition(at=0.0, target="b", frm=OPEN, to=CLOSED),
            ])


# ---------------------------------------------------------------------------
# Platform integration


class TestPlatformAdmission:
    def test_nack_raised_before_any_tree_work(self):
        platform = make_platform(admission=controller(rate=0.5, burst=1.0))
        assert platform.execute_request(
            "sum", "r1", "host:0", PARTIALS).value == TOTAL
        with pytest.raises(AdmissionNack) as err:
            platform.execute_request("sum", "r2", "host:0", PARTIALS)
        assert err.value.reason == RATE_LIMIT
        assert err.value.tenant == "sum"
        assert platform._admission.admitted == 1

    def test_explicit_tenant_and_recovery_over_time(self):
        platform = make_platform(admission=controller(rate=1.0, burst=1.0))
        platform.execute_request("sum", "r1", "host:0", PARTIALS,
                                 tenant="gold")
        # A different tenant has its own bucket.
        platform.execute_request("sum", "r2", "host:0", PARTIALS,
                                 tenant="bronze")
        with pytest.raises(AdmissionNack):
            platform.execute_request("sum", "r3", "host:0", PARTIALS,
                                     tenant="gold")
        platform.advance_clock(platform.clock + 1.0)
        platform.execute_request("sum", "r4", "host:0", PARTIALS,
                                 tenant="gold")


class TestPlatformBreakers:
    def test_dead_box_trips_breaker_and_fails_fast(self):
        topo = three_tier(SMALL)
        deploy_boxes(topo)
        victim = sorted(info.box_id for info in topo.all_boxes())[0]
        schedule = FaultSchedule([FaultEvent(0.0, BOX_CRASH, victim)])
        platform = make_platform(schedule, breakers=True)

        tripped = False
        for i in range(12):
            outcome = platform.execute_request(
                "sum", f"r{i}", "host:0", PARTIALS)
            assert outcome.value == TOTAL
            if outcome.events_of_kind("breaker-open"):
                tripped = True
                # Fail-fast: no retry clock burnt against the victim.
                assert not [e for e in outcome.shim_events
                            if e.kind == "retry" and e.target == victim]
        assert tripped
        assert platform.breakers.states()[victim] == OPEN
        assert_legal_breaker_transitions(platform.breakers.transitions())

    def test_breaker_recloses_after_box_recovers(self):
        topo = three_tier(SMALL)
        deploy_boxes(topo)
        victim = sorted(info.box_id for info in topo.all_boxes())[0]
        schedule = FaultSchedule([
            FaultEvent(0.0, BOX_CRASH, victim),
            FaultEvent(1.0, BOX_RECOVER, victim),
        ])
        platform = make_platform(schedule, breakers=True)
        for i in range(30):
            platform.advance_clock(i * 0.1)
            platform.execute_request("sum", f"r{i}", "host:0", PARTIALS)
        assert platform.breakers.states()[victim] == CLOSED
        assert_legal_breaker_transitions(platform.breakers.transitions())


class TestPlatformHealthNacks:
    def test_health_feed_visible_in_report(self):
        platform = make_platform()
        platform.execute_request("sum", "r1", "host:0", PARTIALS)
        report = health_report(platform)
        assert set(report) == {
            info.box_id for info in platform.topology.all_boxes()}
        assert all(beat.state == "healthy" for beat in report.values())
