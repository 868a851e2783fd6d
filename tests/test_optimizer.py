"""The self-healing control loop (repro.core.optimizer) and its
robustness satellites.

Covers the four stages of the loop -- audit, strategy, plan, apply --
plus the platform hooks the loop depends on: heartbeat staleness
synthesising ``suspect``, ``recover_box`` nudging an open breaker to
half-open, and the seeded decorrelated retry jitter the fleet uses to
spread probe storms.  Mid-request migration (the §3.1 arithmetic) is
exercised in test_recovery.py and under chaos in
test_chaos_invariants.py; here the plan-level drain-then-cutover
protocol is pinned down deterministically, rollback path included.
"""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggbox.functions import SumFunction
from repro.aggbox.overload import FAILED, SUSPECT
from repro.aggregation import deploy_boxes
from repro.core import NetAggPlatform, OverloadConfig
from repro.core.breaker import CLOSED, FAILURE_THRESHOLD, HALF_OPEN, OPEN
from repro.core.optimizer import (
    APPLIED,
    DRAIN,
    FAILED_OVER,
    MIGRATE,
    NOOP,
    ROLLED_BACK,
    STRATEGIES,
    UNDRAIN,
    Action,
    ActionPlan,
    Auditor,
    AuditReport,
    BoxAudit,
    OptimizerLoop,
    PlanApplier,
    StrategyConfig,
    get_strategy,
    noop_plan,
)
from repro.core.optimizer.strategies import _headroom
from repro.experiments.common import QUICK
from repro.faults.retry import (
    BASE_BACKOFF,
    JITTER,
    MAX_BACKOFF,
    RetryPolicy,
    raw_backoff,
)
from repro.obs import METRICS
from repro.topology import ThreeTierParams, three_tier
from repro.wire.serializer import read_float, write_float

SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=4
)

PROPS = settings(max_examples=100, deadline=None)


def make_platform(overload=None):
    topo = three_tier(SMALL)
    deploy_boxes(topo)
    platform = NetAggPlatform(topo, overload=overload)
    platform.register_app(
        "sum", SumFunction(),
        lambda v: write_float(float(v)), lambda b: read_float(b)[0],
    )
    return platform


def box_ids(platform):
    return sorted(info.box_id for info in platform.topology.all_boxes())


def audit(box_id, state="healthy", util=0.0, drained=False):
    return BoxAudit(box_id=box_id, state=state, utilization=util,
                    drained=drained)


def report(*boxes, at=1.0, retry_delta=0):
    return AuditReport(at=at, boxes=tuple(boxes),
                       retry_delta=retry_delta)


# ---------------------------------------------------------------------------
# Satellite: seeded decorrelated retry jitter


class TestDecorrelatedJitter:
    @given(attempt=st.integers(1, 8), key=st.text(max_size=12),
           seed=st.integers(0, 2**16))
    @PROPS
    def test_delays_stay_within_base_and_cap(self, attempt, key, seed):
        policy = RetryPolicy(decorrelated=True, seed=seed)
        delay = policy.backoff(attempt, key)
        assert BASE_BACKOFF <= delay <= MAX_BACKOFF

    @given(attempt=st.integers(1, 8), key=st.text(max_size=12),
           seed=st.integers(0, 2**16))
    @PROPS
    def test_same_seed_reproduces_bit_identical_delays(
            self, attempt, key, seed):
        a = RetryPolicy(decorrelated=True, seed=seed)
        b = RetryPolicy(decorrelated=True, seed=seed)
        assert a.backoff(attempt, key) == b.backoff(attempt, key)

    def test_different_seeds_decorrelate(self):
        a = RetryPolicy(decorrelated=True, seed=1)
        b = RetryPolicy(decorrelated=True, seed=2)
        assert a.delays("req:1") != b.delays("req:1")

    def test_different_keys_decorrelate(self):
        policy = RetryPolicy(decorrelated=True)
        assert policy.delays("host:1") != policy.delays("host:2")

    @given(attempt=st.integers(1, 8), key=st.text(max_size=12))
    @PROPS
    def test_default_scheme_stays_within_jitter_band(self, attempt, key):
        raw = raw_backoff(attempt)
        delay = RetryPolicy().backoff(attempt, key)
        assert raw * (1.0 - JITTER) <= delay <= raw


# ---------------------------------------------------------------------------
# Satellite: stale heartbeats synthesise ``suspect``


class TestHeartbeatStaleness:
    def test_stale_heartbeats_report_suspect(self):
        overload = OverloadConfig(heartbeat_staleness=1.0)
        platform = make_platform(overload)
        platform.advance_clock(5.0)  # box clocks still at 0: all stale
        states = {beat.state for beat in platform.health_report().values()}
        assert states == {SUSPECT}

    def test_fresh_heartbeats_keep_their_state(self):
        overload = OverloadConfig(heartbeat_staleness=1.0)
        platform = make_platform(overload)
        platform.advance_clock(5.0)
        fresh = box_ids(platform)[0]
        platform.box_runtime(fresh).clock = 5.0
        states = {bid: beat.state
                  for bid, beat in platform.health_report().items()}
        assert states[fresh] == "healthy"
        assert all(state == SUSPECT
                   for bid, state in states.items() if bid != fresh)

    def test_failed_outranks_suspect(self):
        overload = OverloadConfig(heartbeat_staleness=1.0)
        platform = make_platform(overload)
        dead = box_ids(platform)[0]
        platform.fail_box(dead)
        platform.advance_clock(5.0)
        states = {bid: beat.state
                  for bid, beat in platform.health_report().items()}
        assert states[dead] == FAILED
        assert all(state == SUSPECT
                   for bid, state in states.items() if bid != dead)

    def test_explicit_staleness_overrides_config(self):
        overload = OverloadConfig(heartbeat_staleness=1.0)
        platform = make_platform(overload)
        platform.advance_clock(5.0)
        states = {beat.state
                  for beat in platform.health_report(staleness=10.0).values()}
        assert states == {"healthy"}

    def test_no_threshold_means_no_suspicion(self):
        platform = make_platform()  # overload config absent entirely
        platform.advance_clock(100.0)
        states = {beat.state for beat in platform.health_report().values()}
        assert states == {"healthy"}


class TestFailedBoxesReportFailed:
    """A box taken down with ``fail_box`` is ``failed`` in the health
    feed until ``recover_box`` -- it used to report ``healthy``, and the
    optimizer spent its actions draining the dead box."""

    def make(self):
        topo = three_tier(QUICK.topo)
        deploy_boxes(topo)
        return NetAggPlatform(topo)

    def test_reported_until_recovered(self):
        platform = self.make()
        dead = box_ids(platform)[0]
        platform.fail_box(dead)
        states = {bid: beat.state
                  for bid, beat in platform.health_report().items()}
        assert states[dead] == FAILED
        assert all(s == "healthy" for b, s in states.items() if b != dead)
        platform.recover_box(dead)
        assert platform.health_report()[dead].state == "healthy"

    def test_failed_outranks_suspect(self):
        platform = make_platform(OverloadConfig(heartbeat_staleness=1.0))
        dead = box_ids(platform)[0]
        platform.fail_box(dead)
        platform.advance_clock(5.0)  # every heartbeat now stale
        assert platform.health_report()[dead].state == FAILED

    def test_no_strategy_targets_the_dead_box(self):
        platform = self.make()
        boxes = box_ids(platform)
        dead = boxes[0]
        platform.fail_box(dead)
        # Everything cold, the dead box hot: each strategy has a reason
        # to act on it if it believed the box alive.
        util = {b: 0.0 for b in boxes}
        util[dead] = 3.0
        report = Auditor(health=platform.health_report,
                         utilization=lambda: util,
                         drained=platform.drained_boxes).audit(1.0)
        assert report.box(dead).state == FAILED
        config = StrategyConfig(hot_utilization=2.0, cold_utilization=0.5,
                                max_actions=len(boxes))
        assert _headroom(report, config) == len(boxes) - 1 - 1
        for name in sorted(STRATEGIES):
            plan = get_strategy(name)(report, config)
            assert dead not in {a.target for a in plan.actions}, name

    def test_consolidation_tick_drains_a_live_box(self):
        platform = self.make()
        dead = box_ids(platform)[0]
        platform.fail_box(dead)
        loop = OptimizerLoop(
            Auditor(health=platform.health_report,
                    drained=platform.drained_boxes),
            "consolidate_underused", PlanApplier(platform),
            config=StrategyConfig(max_actions=1))
        tick = loop.tick(1.0)
        drained = [a.target for a in tick.plan.of_kind(DRAIN)]
        assert len(drained) == 1 and dead not in drained
        assert platform.drained_boxes() == set(drained)


# ---------------------------------------------------------------------------
# Satellite: recover_box nudges an open breaker to half-open


class TestRecoverForcesProbe:
    def make(self):
        return make_platform(OverloadConfig(breaker=True))

    def trip(self, breaker):
        for _ in range(FAILURE_THRESHOLD):
            breaker.record_failure(0.0)

    def test_recover_box_moves_open_breaker_to_half_open(self):
        platform = self.make()
        box = box_ids(platform)[0]
        breaker = platform.breakers.breaker(box)
        self.trip(breaker)
        assert breaker.state == OPEN
        # Regression: recovery used to leave the breaker waiting out
        # the full reset timeout, refusing the recovered box for
        # reset_timeout more virtual seconds.
        platform.recover_box(box)
        assert breaker.state == HALF_OPEN
        assert breaker.allow(0.0)

    def test_recover_leaves_closed_breaker_alone(self):
        platform = self.make()
        box = box_ids(platform)[0]
        breaker = platform.breakers.breaker(box)
        platform.recover_box(box)
        assert breaker.state == CLOSED

    def test_false_recovery_costs_one_probe(self):
        platform = self.make()
        box = box_ids(platform)[0]
        breaker = platform.breakers.breaker(box)
        self.trip(breaker)
        platform.recover_box(box)
        breaker.record_failure(0.1)  # the probe fails: re-open
        assert breaker.state == OPEN


# ---------------------------------------------------------------------------
# Strategies are pure, deterministic and capped


class TestStrategies:
    def test_stabilize_migrates_suspect_boxes_in_id_order(self):
        plan = get_strategy("stabilize_p99")(report(
            audit("box:a", state="gray"),
            audit("box:d", state="suspect"),
            audit("box:b", state="suspect"),
            audit("box:c", state=FAILED), audit("box:e"), audit("box:f"),
        ), StrategyConfig(max_actions=1))
        assert [a.target for a in plan.of_kind(MIGRATE)] == ["box:b"]
        assert plan.actions[0].reason == "state=suspect"

    def test_stabilize_noops_when_all_trusted(self):
        plan = get_strategy("stabilize_p99")(
            report(audit("box:a"), audit("box:b")), StrategyConfig())
        assert plan.is_noop

    def test_stabilize_respects_min_active_guard(self):
        plan = get_strategy("stabilize_p99")(report(
            audit("box:a", state="suspect"),
            audit("box:b", state="suspect"),
        ), StrategyConfig(min_active=2))
        assert plan.is_noop

    def test_consolidate_drains_coldest_idle_boxes(self):
        plan = get_strategy("consolidate_underused")(report(
            audit("box:a", util=0.05),
            audit("box:b", util=0.01),
            audit("box:c", util=0.9),
            audit("box:d", util=0.01, state=SUSPECT),  # never drained
        ), StrategyConfig(max_actions=2, cold_utilization=0.15))
        assert [a.target for a in plan.of_kind(DRAIN)] \
            == ["box:b", "box:a"]

    def test_rebalance_undrains_cooled_then_migrates_hottest(self):
        plan = get_strategy("rebalance_hot_edges")(report(
            audit("box:a", util=0.05, drained=True),
            audit("box:b", util=2.5),
            audit("box:c", util=0.9),
        ), StrategyConfig(hot_utilization=2.0, cold_utilization=0.5,
                          max_actions=2, min_active=1))
        kinds = [(a.kind, a.target) for a in plan.actions]
        assert kinds == [(UNDRAIN, "box:a"), (MIGRATE, "box:b")]

    def test_rebalance_noops_when_balanced(self):
        plan = get_strategy("rebalance_hot_edges")(
            report(audit("box:a", util=0.6), audit("box:b", util=0.7)),
            StrategyConfig(hot_utilization=2.0, cold_utilization=0.5))
        assert plan.is_noop

    def test_unknown_strategy_raises(self):
        with pytest.raises(KeyError, match="unknown strategy"):
            get_strategy("definitely_not_a_strategy")

    def test_action_validation(self):
        with pytest.raises(ValueError):
            Action(kind="explode", target="box:a")
        with pytest.raises(ValueError):
            Action(kind=MIGRATE)  # needs a target
        with pytest.raises(ValueError):
            StrategyConfig(hot_utilization=0.1, cold_utilization=0.5)

    def test_noop_plan_shape(self):
        plan = noop_plan("s", 1.0, reason="all quiet")
        assert plan.is_noop
        assert [(a.kind, a.reason) for a in plan.actions] \
            == [(NOOP, "all quiet")]


# ---------------------------------------------------------------------------
# The applier: drain-then-cutover on a real platform


class TestPlanApplier:
    def plan(self, *actions, strategy="test", at=1.0):
        return ActionPlan(strategy=strategy, at=at, actions=tuple(actions))

    def test_drain_and_undrain_round_trip(self):
        platform = make_platform()
        box = box_ids(platform)[0]
        applier = PlanApplier(platform)
        applier.apply(self.plan(Action(kind=DRAIN, target=box)))
        assert platform.drained_boxes() == {box}
        applier.apply(self.plan(Action(kind=UNDRAIN, target=box)))
        assert platform.drained_boxes() == set()

    def test_migrate_applies_and_keeps_box_drained(self):
        platform = make_platform()
        box = box_ids(platform)[0]
        result = PlanApplier(platform).apply(
            self.plan(Action(kind=MIGRATE, target=box)))
        assert [m.outcome for m in result.migrations] == [APPLIED]
        assert platform.drained_boxes() == {box}
        assert result.rollbacks == 0

    def test_guard_rolls_back_migration_and_undrains(self):
        platform = make_platform()
        boxes = box_ids(platform)
        before = METRICS.counter("optimizer.rollbacks").value
        applier = PlanApplier(platform, min_active=len(boxes))
        result = applier.apply(
            self.plan(Action(kind=MIGRATE, target=boxes[0])))
        assert [m.outcome for m in result.migrations] == [ROLLED_BACK]
        assert platform.drained_boxes() == set()  # rollback undrained it
        assert result.rollbacks == 1
        assert METRICS.counter("optimizer.rollbacks").value == before + 1

    def test_guard_skips_drain_without_rollback(self):
        platform = make_platform()
        boxes = box_ids(platform)
        applier = PlanApplier(platform, min_active=len(boxes))
        result = applier.apply(
            self.plan(Action(kind=DRAIN, target=boxes[0])))
        assert result.applied == []
        assert [reason for _, reason in result.skipped] \
            == ["guard: too few active"]
        assert platform.drained_boxes() == set()

    def test_source_death_in_window_fails_over(self):
        platform = make_platform()
        boxes = box_ids(platform)
        victim = boxes[0]
        applier = PlanApplier(
            platform, interrupt=lambda: platform.fail_box(victim))
        result = applier.apply(
            self.plan(Action(kind=MIGRATE, target=victim)))
        assert [m.outcome for m in result.migrations] == [FAILED_OVER]

    def test_noop_actions_apply_without_side_effects(self):
        platform = make_platform()
        result = PlanApplier(platform).apply(noop_plan("test", 0.0))
        assert [a.kind for a in result.applied] == [NOOP]
        assert platform.drained_boxes() == set()


# ---------------------------------------------------------------------------
# The loop end to end: audit -> strategy -> plan -> apply


def test_apply_and_tick_take_no_in_flight_request():
    """A mid-request migration is ``InFlightRequest.migrate_box``, called
    by whoever holds the request; the applier has no route to it."""
    assert list(inspect.signature(PlanApplier.apply).parameters) == \
        ["self", "plan"]
    assert list(inspect.signature(OptimizerLoop.tick).parameters) == \
        ["self", "at"]


class TestOptimizerLoop:
    def make_loop(self, platform, strategy="stabilize_p99", util=None,
                  **kwargs):
        auditor = Auditor(
            health=platform.health_report,
            utilization=(lambda: util) if util is not None else None,
            drained=platform.drained_boxes,
        )
        applier = PlanApplier(platform)
        return OptimizerLoop(auditor, strategy, applier, **kwargs)

    def test_healthy_platform_ticks_to_noop(self):
        platform = make_platform()
        loop = self.make_loop(platform)
        tick = loop.tick(1.0)
        assert tick.plan.is_noop and not tick.acted
        assert loop.history == [tick]

    def test_suspect_boxes_get_migrated(self):
        overload = OverloadConfig(heartbeat_staleness=1.0)
        platform = make_platform(overload)
        platform.advance_clock(10.0)  # every heartbeat now stale
        loop = self.make_loop(platform)
        tick = loop.tick(10.0)
        assert tick.acted
        migrated = [a.target for a in tick.plan.of_kind(MIGRATE)]
        assert len(migrated) == loop.config.max_actions
        assert platform.drained_boxes() == set(migrated)

    def test_dry_run_plans_without_touching_the_platform(self):
        overload = OverloadConfig(heartbeat_staleness=1.0)
        platform = make_platform(overload)
        platform.advance_clock(10.0)
        loop = self.make_loop(platform, dry_run=True)
        tick = loop.tick(10.0)
        assert tick.result is None and not tick.acted
        assert not tick.plan.is_noop  # it *would* have migrated
        assert platform.drained_boxes() == set()

    def test_rebalance_follows_load_then_returns_capacity(self):
        platform = make_platform()
        boxes = box_ids(platform)
        util = {b: 0.0 for b in boxes}
        util[boxes[0]] = 3.0
        loop = self.make_loop(
            platform, strategy="rebalance_hot_edges", util=util,
            config=StrategyConfig(hot_utilization=2.0,
                                  cold_utilization=0.5, max_actions=1))
        tick = loop.tick(1.0)
        assert [a.target for a in tick.plan.of_kind(MIGRATE)] == [boxes[0]]
        assert platform.drained_boxes() == {boxes[0]}
        util[boxes[0]] = 0.0  # the hot spot cooled: capacity returns
        tick = loop.tick(2.0)
        assert [a.target for a in tick.plan.of_kind(UNDRAIN)] == [boxes[0]]
        assert platform.drained_boxes() == set()

    def test_callable_strategy_accepted(self):
        platform = make_platform()
        loop = self.make_loop(
            platform, strategy=lambda rep, cfg: noop_plan("mine", rep.at))
        assert loop.tick(1.0).plan.strategy == "mine"

    def test_tick_counters_advance(self):
        platform = make_platform()
        before = METRICS.counter("optimizer.ticks").value
        audits_before = METRICS.counter("optimizer.audits").value
        loop = self.make_loop(platform)
        loop.tick(1.0)
        loop.tick(2.0)
        assert METRICS.counter("optimizer.ticks").value == before + 2
        assert METRICS.counter("optimizer.audits").value \
            == audits_before + 2

    def test_audit_reports_retry_delta(self):
        platform = make_platform()
        loop = self.make_loop(platform)
        loop.tick(1.0)
        METRICS.counter("platform.shim.retry").inc(3)
        assert loop.tick(2.0).report.retry_delta == 3
