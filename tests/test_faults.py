"""Tests for the deterministic fault-injection layer (repro.faults).

Covers the schedule/retry primitives, the two per-layer injectors
(flow simulator, functional platform), and the
property-style guarantee the layer exists for: under randomized seeded
fault schedules the platform's aggregates stay byte-identical to a
centralised computation while the shims retry and degrade gracefully.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.aggbox.functions import SearchResult, TopKFunction
from repro.aggregation import NetAggStrategy, deploy_boxes
from repro.core.platform import NetAggPlatform
from repro.faults import (
    BOX_CRASH,
    BOX_DEGRADE,
    BOX_GRAY,
    BOX_OVERLOAD,
    BOX_RECOVER,
    BOX_SHED,
    FAULT_KINDS,
    LINK_DOWN,
    LINK_UP,
    NET_PARTITION,
    WORKER_CHURN,
    FaultEvent,
    FaultSchedule,
    PlatformFaultInjector,
    RetryPolicy,
    SimFaultInjector,
)
from repro.faults.retry import (
    JITTER,
    MAX_BACKOFF,
    TIMEOUT,
)
from repro.netsim.simulator import FlowSim
from repro.topology.threetier import ThreeTierParams, three_tier
from repro.wire.records import decode_search_results, encode_search_results
from repro.workload.synthetic import WorkloadParams, generate_workload
from tests.test_chaos_invariants import BOX_IDS, CHAOS, platform_scenario

SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=4
)


def small_topo():
    topo = three_tier(SMALL)
    deploy_boxes(topo)
    return topo


# ---------------------------------------------------------------------------
# FaultSchedule


class TestFaultSchedule:
    def test_events_kept_sorted(self):
        sched = FaultSchedule([
            FaultEvent(2.0, BOX_CRASH, "b"),
            FaultEvent(1.5, LINK_UP, "l"),
            FaultEvent(1.0, LINK_DOWN, "l"),
        ])
        assert [e.time for e in sched] == [1.0, 1.5, 2.0]

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, BOX_CRASH, "b")
        with pytest.raises(ValueError):
            FaultEvent(0.0, "meteor-strike", "b")
        with pytest.raises(ValueError):
            FaultEvent(0.0, BOX_CRASH, "")
        with pytest.raises(ValueError):
            FaultEvent(0.0, BOX_DEGRADE, "b", severity=0.0)

    def test_crashed_at_tracks_recovery(self):
        sched = FaultSchedule([
            FaultEvent(1.0, BOX_CRASH, "b1"),
            FaultEvent(2.0, BOX_RECOVER, "b1"),
            FaultEvent(3.0, BOX_CRASH, "b2"),
        ])
        assert sched.crashed_at(0.5) == set()
        assert sched.crashed_at(1.0) == {"b1"}
        assert sched.crashed_at(2.5) == set()
        assert sched.crashed_at(3.5) == {"b2"}

    def test_links_down_at(self):
        sched = FaultSchedule([
            FaultEvent(1.0, LINK_DOWN, "l1"),
            FaultEvent(2.0, LINK_UP, "l1"),
        ])
        assert sched.links_down_at(1.5) == {"l1"}
        assert sched.links_down_at(2.0) == set()

    def test_degradation_cleared_by_recover(self):
        sched = FaultSchedule([
            FaultEvent(1.0, BOX_DEGRADE, "b1", severity=4.0),
            FaultEvent(3.0, BOX_RECOVER, "b1"),
        ])
        assert sched.degradation_at("b1", 0.5) == 1.0
        assert sched.degradation_at("b1", 2.0) == 4.0
        assert sched.degradation_at("b1", 3.5) == 1.0
        assert sched.degradation_at("other", 2.0) == 1.0

    def test_churn_window(self):
        sched = FaultSchedule([
            FaultEvent(1.0, WORKER_CHURN, "worker:3", duration=2.0),
        ])
        assert sched.churn_until("worker:3", 0.5) is None
        assert sched.churn_until("worker:3", 1.5) == 3.0
        assert sched.churn_until("worker:3", 3.5) is None
        assert sched.churn_until("worker:0", 1.5) is None

    def test_permanent_crashes(self):
        sched = FaultSchedule([
            FaultEvent(1.0, BOX_CRASH, "b1"),
            FaultEvent(2.0, BOX_CRASH, "b2"),
            FaultEvent(3.0, BOX_RECOVER, "b2"),
        ])
        assert sched.permanent_crashes() == {"b1": 1.0}

    def test_generate_deterministic(self):
        kwargs = dict(duration=10.0, boxes=["b1", "b2", "b3"],
                      links=["l1", "l2"], workers=4, box_crashes=3,
                      link_flaps=2, degradations=1, churns=1)
        a = FaultSchedule.generate(seed=42, **kwargs)
        b = FaultSchedule.generate(seed=42, **kwargs)
        c = FaultSchedule.generate(seed=43, **kwargs)
        assert list(a) == list(b)
        assert list(a) != list(c)

    def test_generate_link_faults_always_flap(self):
        sched = FaultSchedule.generate(seed=7, duration=10.0,
                                       links=["l1", "l2"], link_flaps=5)
        downs = sched.events_for(kind=LINK_DOWN)
        ups = sched.events_for(kind=LINK_UP)
        assert len(downs) == len(ups) == 5

    def test_generate_validates_targets(self):
        with pytest.raises(ValueError):
            FaultSchedule.generate(seed=1, duration=1.0, box_crashes=1)
        with pytest.raises(ValueError):
            FaultSchedule.generate(seed=1, duration=1.0, link_flaps=1)
        with pytest.raises(ValueError):
            FaultSchedule.generate(seed=1, duration=0.0)


# ---------------------------------------------------------------------------
# Point-in-time queries: frozen oracle
#
# The query bodies as they stood before they were rewritten over
# three shared scans (latch / level / window), kept here verbatim
# (``self._events`` reads ``events``).  There were ten; ``migrating_at``
# and ``clock_skew_at`` went with their kinds, and ``partitions_at``
# reads the one partition kind left.  The live methods must agree with
# them on every schedule and every ``t``.


def frozen_crashed_at(events, t):
    down = set()
    for event in events:
        if event.time > t:
            break
        if event.kind == BOX_CRASH:
            down.add(event.target)
        elif event.kind == BOX_RECOVER:
            down.discard(event.target)
    return down


def frozen_links_down_at(events, t):
    down = set()
    for event in events:
        if event.time > t:
            break
        if event.kind == LINK_DOWN:
            down.add(event.target)
        elif event.kind == LINK_UP:
            down.discard(event.target)
    return down


def frozen_degradation_at(events, target, t):
    factor = 1.0
    for event in events:
        if event.time > t:
            break
        if event.target != target:
            continue
        if event.kind == BOX_DEGRADE:
            factor = event.severity
        elif event.kind == BOX_RECOVER:
            factor = 1.0
    return factor


def frozen_churn_until(events, target, t):
    end = None
    for event in events:
        if event.time > t:
            break
        if event.kind == WORKER_CHURN and event.target == target \
                and t < event.time + event.duration:
            window_end = event.time + event.duration
            end = window_end if end is None else max(end, window_end)
    return end


def frozen_overload_at(events, target, t):
    factor = 1.0
    for event in events:
        if event.time > t:
            break
        if event.kind == BOX_OVERLOAD and event.target == target \
                and t < event.time + event.duration:
            factor = max(factor, event.severity)
    return factor


def frozen_shedding_at(events, target, t):
    for event in events:
        if event.time > t:
            break
        if event.kind == BOX_SHED and event.target == target \
                and t < event.time + event.duration:
            return True
    return False


def frozen_gray_at(events, target, t):
    factor = 1.0
    for event in events:
        if event.time > t:
            break
        if event.kind == BOX_GRAY and event.target == target \
                and t < event.time + event.duration:
            factor = max(factor, event.severity)
    return factor


def frozen_partitions_at(events, t):
    scopes = set()
    for event in events:
        if event.time > t:
            break
        if event.kind == NET_PARTITION \
                and (event.duration <= 0
                     or t < event.time + event.duration):
            scopes.add(event.target)
    return sorted(scopes)


#: Few enough values that events and query times collide on the
#: boundaries (``time == t``, ``t == time + duration``).
_GRID = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
_TARGETS = BOX_IDS[:2] + ["link:a", "worker:0", "worker:1", "rack:0"]


@st.composite
def schedule_and_probe(draw):
    """A chaos-suite schedule widened to every fault kind, salted with
    raw events the generator never draws (gray and partition windows,
    severity below 1, zero-length windows), and one (target, t).  A raw
    event that would make the timeline incoherent is left out."""
    seed, counts, permanent, _, _ = draw(platform_scenario())
    generated = FaultSchedule.generate(
        seed=seed, duration=3.0, boxes=BOX_IDS, links=["link:a", "link:b"],
        workers=2, permanent_fraction=permanent,
        link_flaps=draw(st.integers(0, 2)), **counts)
    raw = draw(st.lists(st.builds(
        FaultEvent,
        time=st.sampled_from(_GRID),
        kind=st.sampled_from(sorted(FAULT_KINDS)),
        target=st.sampled_from(_TARGETS),
        severity=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
        duration=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    ), max_size=12))
    events = list(generated)
    for event in raw:
        try:
            FaultSchedule(events + [event])
        except ValueError:
            continue
        events.append(event)
    schedule = FaultSchedule(events)
    targets = sorted({e.target for e in schedule}) + ["nobody"]
    t = draw(st.sampled_from(_GRID) | st.floats(0.0, 4.0))
    return schedule, draw(st.sampled_from(targets)), t


class TestPointInTimeQueriesMatchFrozenBodies:
    @given(case=schedule_and_probe())
    @CHAOS
    def test_ten_queries(self, case):
        schedule, target, t = case
        events = list(schedule)
        assert schedule.crashed_at(t) == frozen_crashed_at(events, t)
        assert schedule.links_down_at(t) == frozen_links_down_at(events, t)
        assert schedule.partitions_at(t) == frozen_partitions_at(events, t)
        for live, frozen in (
            (schedule.degradation_at, frozen_degradation_at),
            (schedule.churn_until, frozen_churn_until),
            (schedule.overload_at, frozen_overload_at),
            (schedule.shedding_at, frozen_shedding_at),
            (schedule.gray_at, frozen_gray_at),
        ):
            got, want = live(target, t), frozen(events, target, t)
            assert got == want and type(got) is type(want), live.__name__

    @pytest.mark.parametrize("kind, query", [
        (BOX_OVERLOAD, FaultSchedule.overload_at),
        (BOX_GRAY, FaultSchedule.gray_at),
    ])
    def test_a_speed_up_window_still_reads_one(self, kind, query):
        sched = FaultSchedule([
            FaultEvent(1.0, kind, "b", severity=0.5, duration=2.0)])
        assert query(sched, "b", 1.5) == 1.0

    def test_zero_length_windows(self):
        """``duration=0`` is "never heals" for a partition and "covers
        nothing" for every self-clearing box window."""
        sched = FaultSchedule([
            FaultEvent(1.0, NET_PARTITION, "rack:0"),
            FaultEvent(1.0, BOX_SHED, "b"),
            FaultEvent(1.0, WORKER_CHURN, "worker:0"),
        ])
        for t in (1.0, 5.0, 1e9):
            assert sched.partitions_at(t) == ["rack:0"]
            assert not sched.shedding_at("b", t)
            assert sched.churn_until("worker:0", t) is None
        assert sched.partitions_at(0.5) == []


# ---------------------------------------------------------------------------
# RetryPolicy


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        # Each sleep sits in the jitter band below its un-jittered
        # bound, which doubles from 10 ms and caps at MAX_BACKOFF.
        policy = RetryPolicy()
        bounds = [0.01, 0.02, 0.04, 0.08, 0.16, 0.32, MAX_BACKOFF]
        for attempt, bound in enumerate(bounds + [MAX_BACKOFF] * 13,
                                        start=1):
            delay = policy.backoff(attempt, key="k")
            assert bound * (1.0 - JITTER) <= delay <= bound

    def test_jitter_bounded_and_deterministic(self):
        policy = RetryPolicy()
        for attempt, raw in ((1, 0.01), (2, 0.02)):
            jittered = policy.backoff(attempt, key="w0->box:a")
            assert raw * (1.0 - JITTER) <= jittered <= raw
            assert jittered == policy.backoff(attempt, key="w0->box:a")
        assert policy.backoff(1, key="a") != policy.backoff(1, key="b")

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0)

# ---------------------------------------------------------------------------
# Simulator injection


def _netagg_sim(topo, schedule, seed=3, n_flows=25):
    workload = generate_workload(
        topo, WorkloadParams(n_flows=n_flows), seed=seed)
    injector = SimFaultInjector(topo, schedule)
    strategy = NetAggStrategy(fault_view=injector.fault_view)
    sim = FlowSim(topo.network)
    sim.add_flows(strategy.plan(workload, topo))
    injector.apply(sim, workload)
    return sim, workload


class TestSimFaultInjector:
    def test_capacity_events_cover_box_links(self):
        topo = small_topo()
        box = sorted(i.box_id for i in topo.all_boxes())[0]
        info = topo.box(box)
        sched = FaultSchedule([
            FaultEvent(1.0, BOX_CRASH, box),
            FaultEvent(2.0, BOX_RECOVER, box),
        ])
        events = SimFaultInjector(topo, sched).capacity_events(topo.network)
        downed = {link for when, link, cap in events if cap == 0.0}
        assert downed == {info.downlink, info.uplink, info.proc_link}
        restored = {link: cap for when, link, cap in events if when == 2.0}
        base = topo.network.capacities()
        assert restored == {link: base[link] for link in downed}

    def test_unknown_targets_skipped(self):
        topo = three_tier(SMALL)  # no boxes deployed
        sched = FaultSchedule([
            FaultEvent(1.0, BOX_CRASH, "box:tor:0:0"),
            FaultEvent(1.0, LINK_DOWN, "no-such-link"),
        ])
        assert SimFaultInjector(topo, sched).capacity_events(
            topo.network) == []

    def test_degrade_scales_proc_link(self):
        topo = small_topo()
        box = sorted(i.box_id for i in topo.all_boxes())[0]
        info = topo.box(box)
        sched = FaultSchedule([
            FaultEvent(1.0, BOX_DEGRADE, box, severity=4.0),
        ])
        events = SimFaultInjector(topo, sched).capacity_events(topo.network)
        base = topo.network.capacities()[info.proc_link]
        assert events == [(1.0, info.proc_link, base / 4.0)]

    def test_permanent_crash_mid_run_completes_via_reroutes(self):
        topo = small_topo()
        # Find a box actually used by the fault-free plan, then crash it
        # permanently at ~30% of the fault-free makespan.
        sim0, _ = _netagg_sim(topo, FaultSchedule())
        base = sim0.run()
        used = sorted({
            link.split("proc:")[1]
            for record in base.records.values()
            for link in record.spec.path if link.startswith("proc:")
        })
        end = max(r.drain_time for r in base.records.values())
        sched = FaultSchedule([FaultEvent(0.3 * end, BOX_CRASH, used[0])])

        topo2 = small_topo()
        sim, _ = _netagg_sim(topo2, sched)
        result = sim.run()  # would raise on stalled flows
        assert len(result.records) == len(base.records)

        topo3 = small_topo()
        sim2, _ = _netagg_sim(topo3, sched)
        again = sim2.run()
        assert {f: r.drain_time for f, r in result.records.items()} == \
            {f: r.drain_time for f, r in again.records.items()}

    def test_unrecovered_link_stalls_with_diagnostic(self):
        topo = small_topo()
        sim, _ = _netagg_sim(topo, FaultSchedule())
        flow = next(iter(sim.flow_ids()))
        link = sim.spec(flow).path[0]
        sim.add_capacity_event(0.0, link, 0.0)
        with pytest.raises(RuntimeError, match="down links"):
            sim.run()

    def test_transient_crash_rides_through(self):
        """A crash that recovers needs no reroutes -- flows wait it out."""
        topo = small_topo()
        sim0, _ = _netagg_sim(topo, FaultSchedule())
        base = sim0.run()
        used = sorted({
            link.split("proc:")[1]
            for record in base.records.values()
            for link in record.spec.path if link.startswith("proc:")
        })
        end = max(r.drain_time for r in base.records.values())
        sched = FaultSchedule([
            FaultEvent(0.3 * end, BOX_CRASH, used[0]),
            FaultEvent(0.6 * end, BOX_RECOVER, used[0]),
        ])
        assert not sched.permanent_crashes()
        topo2 = small_topo()
        sim, _ = _netagg_sim(topo2, sched)
        result = sim.run()
        assert len(result.records) == len(base.records)
        faulted_end = max(r.drain_time for r in result.records.values())
        # Waiting out the crash never ends the run early.  The faulted
        # run reaches its drain times by other float operations than
        # the fault-free one (more epochs, each subtracting sent bytes),
        # so the comparison allows four ulps: a drain time that agrees
        # in exact arithmetic may differ in the last bit, and which way
        # depends on the interpreter's ``sum`` (compensated from 3.12).
        assert faulted_end >= end - 4 * math.ulp(end)


# ---------------------------------------------------------------------------
# Platform injection


def _solr_platform(faults=None, retry=None):
    topo = small_topo()
    platform = NetAggPlatform(topo, faults=faults, retry=retry)
    platform.register_app("solr", TopKFunction(k=3),
                          encode_search_results, decode_search_results)
    return platform


def _solr_partials(hosts=("host:1", "host:4", "host:8", "host:12")):
    return [
        (host, [SearchResult(i * 10 + j, float(i * 10 + j))
                for j in range(5)])
        for i, host in enumerate(hosts)
    ]


#: Three boxes of :func:`small_topo`; :func:`_slow_schedules` never names
#: the last one.
_SLOW_BOXES = sorted(info.box_id for info in small_topo().all_boxes())[:3]


@st.composite
def _slow_schedules(draw):
    """Coherent schedules of degrade/recover/crash and gray windows on
    the first two of :data:`_SLOW_BOXES`, on a half-second grid so
    window edges coincide with each other and with query times."""
    events = []
    for box in _SLOW_BOXES[:2]:
        times = draw(st.lists(st.integers(0, 12), unique=True, max_size=5))
        outstanding = set()
        for step in sorted(times):
            t = step / 2
            kind = draw(st.sampled_from((BOX_DEGRADE, BOX_RECOVER,
                                         BOX_CRASH)))
            if kind == BOX_RECOVER and not outstanding:
                kind = BOX_DEGRADE
            if kind == BOX_CRASH and BOX_CRASH in outstanding:
                kind = BOX_RECOVER
            if kind == BOX_RECOVER:
                outstanding.clear()
            else:
                outstanding.add(kind)
            events.append(FaultEvent(
                t, kind, box,
                severity=draw(st.sampled_from((1.5, 2.0, 3.25)))
                if kind == BOX_DEGRADE else 1.0))
        for _ in range(draw(st.integers(0, 3))):
            events.append(FaultEvent(
                draw(st.integers(0, 12)) / 2, BOX_GRAY, box,
                severity=draw(st.sampled_from((1.25, 4.0, 7.5))),
                duration=draw(st.integers(0, 6)) / 2))
    return FaultSchedule(events)


class TestPlatformFaults:
    def test_no_faults_no_events(self):
        outcome = _solr_platform().execute_request(
            "solr", "r1", "host:0", _solr_partials())
        assert outcome.shim_events == []

    def test_oracle_surface_is_called_directly(self):
        """One plain request asks the oracle all four questions, and
        asks them unguarded: an oracle missing one fails at first use
        instead of being silently read as "no such fault"."""
        surface = {"box_down", "slowdown", "churn_until", "isolated"}
        real = PlatformFaultInjector(FaultSchedule())

        class Oracle:
            def __init__(self, missing=None):
                self.missing = missing
                self.asked = set()

            def __getattr__(self, name):
                if name == self.missing:
                    raise AttributeError(name)
                self.asked.add(name)
                return getattr(real, name)

        whole = Oracle()
        _solr_platform(faults=whole).execute_request(
            "solr", "r1", "host:0", _solr_partials())
        assert whole.asked == surface
        for name in sorted(surface):
            with pytest.raises(AttributeError, match=name):
                _solr_platform(faults=Oracle(missing=name)).execute_request(
                    "solr", "r1", "host:0", _solr_partials())

    @given(data=st.data())
    def test_send_slowdown_is_degradation_times_gray(self, data):
        """The factor a send into a box is slowed by is exactly the
        schedule's ``degradation_at x gray_at`` product, on every box --
        including boxes no window names -- and at every window edge."""
        schedule = data.draw(_slow_schedules())
        oracle = PlatformFaultInjector(schedule)
        platform = _solr_platform(faults=oracle)
        edges = {t for e in schedule for t in (e.time, e.time + e.duration)}
        for t in sorted(edges | {0.0, 0.25, 3.5, 9.0}):
            platform.advance_clock(t)
            for box in _SLOW_BOXES:
                want = schedule.degradation_at(box, t) \
                    * schedule.gray_at(box, t)
                assert oracle.slowdown(box, t) == want, (box, t)
                assert platform._send_cost(box)[0] == want, (box, t)

    def test_crashed_boxes_rewired_with_retries(self):
        partials = _solr_partials()
        base = _solr_platform().execute_request("solr", "r1", "host:0",
                                                partials)
        victims = base.boxes_used[:2]
        sched = FaultSchedule([FaultEvent(0.0, BOX_CRASH, v)
                               for v in victims])
        platform = _solr_platform(faults=PlatformFaultInjector(sched))
        outcome = platform.execute_request("solr", "r1", "host:0", partials)
        assert outcome.value == base.value
        assert outcome.events_of_kind("retry")
        assert {e.target for e in outcome.events_of_kind("unreachable")} \
            == set(victims)
        assert not set(victims) & set(outcome.boxes_used)
        assert platform.clock > 0.0

    def test_retry_rides_through_recovery_during_backoff(self):
        partials = _solr_partials()
        base = _solr_platform().execute_request("solr", "r1", "host:0",
                                                partials)
        victim = base.boxes_used[0]
        sched = FaultSchedule([
            FaultEvent(0.0, BOX_CRASH, victim),
            FaultEvent(TIMEOUT * 1.5, BOX_RECOVER, victim),
        ])
        outcome = _solr_platform(
            faults=PlatformFaultInjector(sched)).execute_request(
            "solr", "r1", "host:0", partials)
        assert outcome.value == base.value
        assert outcome.events_of_kind("retry")
        assert not outcome.events_of_kind("unreachable")
        assert victim in outcome.boxes_used

    def test_entry_box_crash_falls_back_or_bypasses(self):
        partials = _solr_partials()
        platform = _solr_platform()
        base = platform.execute_request("solr", "r1", "host:0", partials)
        # Crash every box used: all workers must bypass to the master.
        sched = FaultSchedule([FaultEvent(0.0, BOX_CRASH, b)
                               for b in base.boxes_used])
        outcome = _solr_platform(
            faults=PlatformFaultInjector(sched)).execute_request(
            "solr", "r1", "host:0", partials)
        assert outcome.value == base.value
        assert outcome.events_of_kind("fallback") or \
            outcome.events_of_kind("bypass")

    def test_degradation_recorded_and_charges_clock(self):
        partials = _solr_partials()
        base = _solr_platform().execute_request("solr", "r1", "host:0",
                                                partials)
        victim = base.boxes_used[0]
        sched = FaultSchedule([
            FaultEvent(0.0, BOX_DEGRADE, victim, severity=5.0),
        ])
        healthy = _solr_platform(faults=PlatformFaultInjector(
            FaultSchedule()))
        degraded = _solr_platform(faults=PlatformFaultInjector(sched))
        out_h = healthy.execute_request("solr", "r1", "host:0", partials)
        out_d = degraded.execute_request("solr", "r1", "host:0", partials)
        assert out_d.value == base.value == out_h.value
        assert out_d.events_of_kind("degraded")
        assert degraded.clock > healthy.clock

    def test_churning_worker_waits_out_window(self):
        partials = _solr_partials()
        sched = FaultSchedule([
            FaultEvent(0.0, WORKER_CHURN, "worker:1", duration=2.5),
        ])
        platform = _solr_platform(faults=PlatformFaultInjector(sched))
        outcome = platform.execute_request("solr", "r1", "host:0", partials)
        assert outcome.events_of_kind("churn")
        assert platform.clock >= 2.5
        base = _solr_platform().execute_request("solr", "r1", "host:0",
                                                partials)
        assert outcome.value == base.value

    def test_property_random_schedules_stay_byte_exact(self):
        """Seeded random schedules with >= 2 box crashes and >= 1 link
        flap: the aggregate equals the centralised merge byte for byte
        and at least one retry or fallback was recorded."""
        partials = _solr_partials()
        function = TopKFunction(k=3)
        expected = function.merge([value for _, value in partials])
        links = sorted(
            link.link_id for link in small_topo().network.wire_links()
            if "->core:" in link.link_id
        )
        for seed in range(10):
            # Victims must sit on the tree this request will actually
            # use (tree choice hashes the request id), so derive them
            # from a fault-free run of the same request.
            base = _solr_platform().execute_request(
                "solr", f"r{seed}", "host:0", partials)
            sched = FaultSchedule.generate(
                seed=seed, duration=0.5, boxes=base.boxes_used,
                links=links, workers=len(partials),
                box_crashes=2 + seed % 2, link_flaps=1 + seed % 2,
                degradations=seed % 2, churns=seed % 3,
                permanent_fraction=1.0,
            )
            crashes = sched.events_for(kind=BOX_CRASH)
            assert len(crashes) >= 2
            platform = _solr_platform(faults=PlatformFaultInjector(sched))
            # Start the request inside the first crash's window so the
            # shims actually face a dead box.
            platform.advance_clock(crashes[0].time)
            outcome = platform.execute_request(
                "solr", f"r{seed}", "host:0", partials)
            assert outcome.value == expected, f"seed {seed} diverged"
            degraded = (outcome.events_of_kind("retry")
                        + outcome.events_of_kind("fallback")
                        + outcome.events_of_kind("bypass"))
            assert degraded, f"seed {seed} recorded no degradation"
            # Bit-reproducible: same schedule, same outcome and events.
            platform2 = _solr_platform(faults=PlatformFaultInjector(sched))
            platform2.advance_clock(crashes[0].time)
            outcome2 = platform2.execute_request(
                "solr", f"r{seed}", "host:0", partials)
            assert outcome2.value == outcome.value
            assert outcome2.shim_events == outcome.shim_events

    def test_batch_execution_under_faults(self):
        base_platform = _solr_platform()
        keyed = [
            (host, [(f"k{i}:{j}", SearchResult(i * 10 + j,
                                               float(i * 10 + j)))
                    for j in range(4)])
            for i, host in enumerate(("host:1", "host:4", "host:8"))
        ]
        base = base_platform.execute_batch("solr", "job", "host:0", keyed,
                                           n_trees=2)
        sched = FaultSchedule([FaultEvent(0.0, BOX_CRASH, b)
                               for b in base.boxes_used[:2]])
        outcome = _solr_platform(
            faults=PlatformFaultInjector(sched)).execute_batch(
            "solr", "job", "host:0", keyed, n_trees=2)
        assert outcome.value == base.value
