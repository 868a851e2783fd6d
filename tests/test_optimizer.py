"""The self-healing control loop (repro.core.optimizer) and its
robustness satellites.

Covers the four stages of the loop -- audit, strategy, plan, apply --
plus the platform hook the loop depends on (the ``failed`` verdict of
the health feed, a test oracle in ``tests/health.py``) and the seeded
decorrelated retry jitter the fleet uses to spread probe storms.  Mid-request failure (the
§3.1 arithmetic) is exercised in test_recovery.py and under chaos in
test_chaos_invariants.py; ``fig_selfheal``'s decisions are pinned tick
by tick at the end.
"""

import hashlib
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggbox.functions import SumFunction
from repro.aggregation import deploy_boxes
from repro.core import NetAggPlatform
from repro.core.optimizer import (
    DRAIN,
    UNDRAIN,
    Action,
    ActionPlan,
    Auditor,
    AuditReport,
    BoxAudit,
    OptimizerLoop,
    PlanApplier,
    rebalance_hot_edges,
)
from repro.core.optimizer.strategies import (
    HOT_UTILIZATION,
    MAX_ACTIONS,
    MIN_ACTIVE,
    _headroom,
)
from repro.experiments.common import BENCH, QUICK
from repro.experiments.fig_selfheal import PlanDrainShim
from repro.faults.retry import (
    BASE_BACKOFF,
    JITTER,
    MAX_BACKOFF,
    MAX_ATTEMPTS,
    RetryPolicy,
)
from repro.obs import METRICS
from repro.topology import ThreeTierParams, three_tier
from repro.wire.serializer import write_float
from tests.codecs import read_float
from tests.health import FAILED, health_report

SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=4
)

PROPS = settings(max_examples=100, deadline=None)


def make_platform():
    topo = three_tier(SMALL)
    deploy_boxes(topo)
    platform = NetAggPlatform(topo)
    platform.register_app(
        "sum", SumFunction(),
        lambda v: write_float(float(v)), lambda b: read_float(b)[0],
    )
    return platform


class Fleet(PlanDrainShim):
    """:class:`PlanApplier`'s target: ``fig_selfheal``'s plan-side drain
    surface over a test platform's topology, with its failed boxes."""

    def __init__(self, platform):
        super().__init__(platform.topology)
        self.platform = platform

    def failed_boxes(self):
        return set(self.platform._failed)


def of_kind(plan, kind):
    return tuple(a for a in plan.actions if a.kind == kind)


def delays(policy, key):
    """All backoff sleeps of one full retry sequence for ``key``."""
    return [policy.backoff(a, key) for a in range(1, MAX_ATTEMPTS)]


def box_ids(platform):
    return sorted(info.box_id for info in platform.topology.all_boxes())


def audit(box_id, state="healthy", util=0.0, drained=False):
    return BoxAudit(box_id=box_id, state=state, utilization=util,
                    drained=drained)


def report(*boxes, at=1.0):
    return AuditReport(at=at, boxes=tuple(boxes))


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
        assert delays(a, "req:1") != delays(b, "req:1")

    def test_different_keys_decorrelate(self):
        policy = RetryPolicy(decorrelated=True)
        assert delays(policy, "host:1") != delays(policy, "host:2")

    @given(attempt=st.integers(1, 8), key=st.text(max_size=12))
    @PROPS
    def test_default_scheme_stays_within_jitter_band(self, attempt, key):
        raw = min(BASE_BACKOFF * 2.0 ** (attempt - 1), MAX_BACKOFF)
        delay = RetryPolicy().backoff(attempt, key)
        assert raw * (1.0 - JITTER) <= delay <= raw


# ---------------------------------------------------------------------------
# Satellite: the health feed has no stale-heartbeat verdict


class TestFailedBoxesReportFailed:
    """A box taken down with ``fail_box`` is ``failed`` in the health
    feed -- it used to report ``healthy``, and the optimizer spent its
    actions draining the dead box."""

    def make(self):
        topo = three_tier(QUICK.topo)
        deploy_boxes(topo)
        return NetAggPlatform(topo)

    def make_loop(self, fleet, util):
        return OptimizerLoop(
            Auditor(health=lambda: health_report(fleet.platform),
                    utilization=lambda: util,
                    drained=fleet.drained_boxes),
            PlanApplier(fleet))

    def test_no_strategy_targets_the_dead_box(self):
        platform = self.make()
        boxes = box_ids(platform)
        dead = boxes[0]
        platform.fail_box(dead)
        # The dead box is the hottest: the strategy would drain it
        # first if it believed the box alive.
        util = {b: 0.0 for b in boxes}
        util[dead] = 3.0
        report = Auditor(health=lambda: health_report(platform),
                         utilization=lambda: util,
                         drained=set).audit(1.0)
        states = {a.box_id: a.state for a in report.boxes}
        assert states[dead] == FAILED
        assert _headroom(report) == len(boxes) - 1 - MIN_ACTIVE
        plan = rebalance_hot_edges(report)
        assert plan.actions == ()

    def test_tick_drains_a_live_box_not_the_dead_one(self):
        platform = self.make()
        boxes = box_ids(platform)
        dead, live = boxes[0], boxes[1]
        platform.fail_box(dead)
        util = {b: 0.0 for b in boxes}
        util[dead] = util[live] = 3.0
        fleet = Fleet(platform)
        tick = self.make_loop(fleet, util).tick(1.0)
        assert [a.target for a in of_kind(tick.plan, DRAIN)] == [live]
        assert fleet.drained_boxes() == {live}


class TestUnknownBoxes:
    """The platform's box verb refuses an id it does not host."""

    @pytest.mark.parametrize("verb", ["fail_box"])
    def test_unknown_box_raises(self, verb):
        platform = make_platform()
        with pytest.raises(KeyError, match="box:nope"):
            getattr(platform, verb)("box:nope")
        assert health_report(platform).keys() == set(box_ids(platform))
        assert {beat.state for beat in health_report(platform).values()} \
            == {"healthy"}


# ---------------------------------------------------------------------------
# The strategy is pure, deterministic and capped


class TestStrategies:
    def test_rebalance_undrains_cooled_then_drains_hottest(self):
        plan = rebalance_hot_edges(report(
            audit("box:a", util=0.05, drained=True),
            audit("box:b", util=2.5),
            audit("box:c", util=0.9),
            audit("box:d", util=0.1),
        ))
        kinds = [(a.kind, a.target) for a in plan.actions]
        assert kinds == [(UNDRAIN, "box:a"), (DRAIN, "box:b")]
        assert plan.actions[1].reason == f"util=2.50>={HOT_UTILIZATION:g}"

    def test_rebalance_noops_when_balanced(self):
        plan = rebalance_hot_edges(
            report(audit("box:a", util=0.6), audit("box:b", util=0.7)))
        assert plan == ActionPlan(at=1.0)

    def test_noop_plan_shape(self):
        plan = ActionPlan(at=2.0)
        assert plan.actions == ()
        assert of_kind(plan, DRAIN) == of_kind(plan, UNDRAIN) == ()

    def test_drains_hottest_first_and_caps_per_tick(self):
        boxes = [audit(f"box:{i}", util=2.0 + i) for i in range(6)]
        plan = rebalance_hot_edges(report(*boxes))
        assert MAX_ACTIONS == 2
        assert [a.target for a in of_kind(plan, DRAIN)] == ["box:5", "box:4"]

    def test_never_plans_below_min_active(self):
        hot = [audit(f"box:{i}", util=3.0) for i in range(MIN_ACTIVE)]
        assert rebalance_hot_edges(report(*hot)).actions == ()
        plan = rebalance_hot_edges(report(*hot, audit("box:z")))
        assert len(of_kind(plan, DRAIN)) == 1

    def test_failed_drained_boxes_stay_drained(self):
        plan = rebalance_hot_edges(report(
            audit("box:a", state=FAILED, drained=True),
            audit("box:b"), audit("box:c")))
        assert plan.actions == ()

    def test_action_validation(self):
        with pytest.raises(ValueError):
            Action(kind="explode", target="box:a")
        with pytest.raises(ValueError):
            Action(kind=DRAIN, target="")  # needs a target
        with pytest.raises(ValueError):
            Action(kind="migrate", target="box:a")  # folded into drain


# ---------------------------------------------------------------------------
# The applier: drain and undrain on fig_selfheal's plan-side surface


class TestPlanApplier:
    def plan(self, *actions, at=1.0):
        return ActionPlan(at=at, actions=tuple(actions))

    def test_drain_and_undrain_round_trip(self):
        fleet = Fleet(make_platform())
        box = box_ids(fleet.platform)[0]
        applier = PlanApplier(fleet)
        drains = METRICS.counter("optimizer.drains").value
        undrains = METRICS.counter("optimizer.undrains").value
        applier.apply(self.plan(Action(kind=DRAIN, target=box)))
        assert fleet.drained_boxes() == {box}
        applier.apply(self.plan(Action(kind=UNDRAIN, target=box)))
        assert fleet.drained_boxes() == set()
        assert METRICS.counter("optimizer.drains").value == drains + 1
        assert METRICS.counter("optimizer.undrains").value == undrains + 1

    def test_guard_skips_drain_without_rollback(self):
        fleet = Fleet(make_platform())
        boxes = box_ids(fleet.platform)
        for box in boxes[:-MIN_ACTIVE]:
            fleet.drain_box(box)
        drains = METRICS.counter("optimizer.drains").value
        actions = METRICS.counter("optimizer.actions").value
        result = PlanApplier(fleet).apply(
            self.plan(Action(kind=DRAIN, target=boxes[-1])))
        assert result.applied == []
        assert [reason for _, reason in result.skipped] \
            == ["guard: too few active"]
        assert fleet.drained_boxes() == set(boxes[:-MIN_ACTIVE])
        # Asked for, counted as an action, not applied as a drain.
        assert METRICS.counter("optimizer.actions").value == actions + 1
        assert METRICS.counter("optimizer.drains").value == drains

    def test_guard_counts_failed_boxes_as_inactive(self):
        fleet = Fleet(make_platform())
        boxes = box_ids(fleet.platform)
        for box in boxes[:-MIN_ACTIVE]:
            fleet.platform.fail_box(box)
        result = PlanApplier(fleet).apply(
            self.plan(Action(kind=DRAIN, target=boxes[-1])))
        assert result.applied == [] and fleet.drained_boxes() == set()

    def test_noop_actions_apply_without_side_effects(self):
        fleet = Fleet(make_platform())
        result = PlanApplier(fleet).apply(self.plan())
        assert result.applied == [] and result.skipped == []
        assert fleet.drained_boxes() == set()


# ---------------------------------------------------------------------------
# The loop end to end: audit -> strategy -> plan -> apply


def test_apply_and_tick_take_no_in_flight_request():
    """A box dying mid-request is ``InFlightRequest.fail_box``, called
    by whoever holds the request; the applier has no route to it."""
    assert list(inspect.signature(PlanApplier.apply).parameters) == \
        ["self", "plan"]
    assert list(inspect.signature(OptimizerLoop.tick).parameters) == \
        ["self", "at"]


class TestOptimizerLoop:
    def make_loop(self, fleet, util=None):
        auditor = Auditor(
            health=lambda: health_report(fleet.platform),
            utilization=lambda: util or {},
            drained=fleet.drained_boxes,
        )
        return OptimizerLoop(auditor, PlanApplier(fleet))

    def test_healthy_platform_ticks_to_noop(self):
        platform = make_platform()
        tick = self.make_loop(Fleet(platform)).tick(1.0)
        assert tick.plan.actions == () and tick.result.applied == []
        assert tick.report.at == 1.0
        assert len(tick.report.boxes) == len(box_ids(platform))

    def test_rebalance_follows_load_then_returns_capacity(self):
        fleet = Fleet(make_platform())
        boxes = box_ids(fleet.platform)
        util = {b: 0.0 for b in boxes}
        util[boxes[0]] = 3.0
        loop = self.make_loop(fleet, util)
        tick = loop.tick(1.0)
        assert [a.target for a in of_kind(tick.plan, DRAIN)] == [boxes[0]]
        assert fleet.drained_boxes() == {boxes[0]}
        util[boxes[0]] = 0.0  # the hot spot cooled: capacity returns
        tick = loop.tick(2.0)
        assert [a.target for a in of_kind(tick.plan, UNDRAIN)] == [boxes[0]]
        assert fleet.drained_boxes() == set()

    def test_tick_counters_advance(self):
        before = METRICS.counter("optimizer.ticks").value
        audits_before = METRICS.counter("optimizer.audits").value
        loop = self.make_loop(Fleet(make_platform()))
        loop.tick(1.0)
        loop.tick(2.0)
        assert METRICS.counter("optimizer.ticks").value == before + 2
        assert METRICS.counter("optimizer.audits").value \
            == audits_before + 2


# ---------------------------------------------------------------------------
# The loop fig_selfheal runs, pinned decision by decision

#: sha256 of ``repr`` of the drained set after every ``fig_selfheal``
#: tick, seed 1, every load, per scale.  At QUICK scale only the 3.0
#: load drains (6 of 40 ticks end with a box drained); BENCH is the
#: ledger's scale, where 67 of 101 ticks do.
SELFHEAL_DRAINED_SHA256 = {
    "quick":
        "d5ec1d716623689c565f5df8993a78498652b608cbc307577dce62a3d8003442",
    "bench":
        "74f25a0eaf89701f0bbe05c017e8a8559c5a366088f3e01bd9dc735d5c8fd8e1",
}


@pytest.mark.parametrize("scale", sorted(SELFHEAL_DRAINED_SHA256))
def test_fig_selfheal_drained_sets_are_frozen(monkeypatch, scale):
    """Every tick of the ``opt`` arm ends in the same drained set.

    The figure's table only shows action counts; this pins the order
    and the targets of every drain and undrain the loop applied, at
    each of the four loads."""
    from repro.experiments import fig_selfheal

    view = fig_selfheal.SelfHealController.view
    drained = []

    def recording(self, job):
        boxes = view(self, job)
        drained[-1][1].append(sorted(boxes))
        return boxes

    monkeypatch.setattr(fig_selfheal.SelfHealController, "view", recording)
    sim_scale = {"quick": QUICK, "bench": BENCH}[scale]
    for load in fig_selfheal.LOADS:
        drained.append((load, []))
        fig_selfheal._run_arm(
            fig_selfheal._loaded_scale(sim_scale, load), "opt", 1)
    assert all(ticks for _, ticks in drained)
    digest = hashlib.sha256(repr(drained).encode()).hexdigest()
    assert digest == SELFHEAL_DRAINED_SHA256[scale], drained
