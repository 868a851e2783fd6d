"""The self-healing control loop (repro.core.optimizer) and its
robustness satellites.

Covers the loop's two functions -- the pure ``rebalance_hot_edges``
and ``tick``, which applies its actions to the caller's drained set --
plus the platform hook the loop depends on (the ``failed`` verdict of
the health feed, a test oracle in ``tests/health.py``) and the seeded
decorrelated retry jitter the fleet uses to spread probe storms.
test_optimizer_differential.py holds the loop to a frozen copy of the
staged audit/strategy/plan/apply one.  Mid-request failure (the
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
    HOT_UTILIZATION,
    MAX_ACTIONS,
    MIN_ACTIVE,
    UNDRAIN,
    rebalance_hot_edges,
    tick,
)
from repro.experiments.common import BENCH, QUICK
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


def targets(actions, kind):
    return [box for k, box, _ in actions if k == kind]


def delays(policy, key):
    """All backoff sleeps of one full retry sequence for ``key``."""
    return [policy.backoff(a, key) for a in range(1, MAX_ATTEMPTS)]


def box_ids(platform):
    return sorted(info.box_id for info in platform.topology.all_boxes())


def reported(platform, util):
    """What a caller hands the loop: the utilization of every box the
    health feed does not report failed (a box missing from ``util``
    reads 0.0)."""
    return {box_id: util.get(box_id, 0.0)
            for box_id, beat in health_report(platform).items()
            if beat.state != FAILED}


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

    def test_no_strategy_targets_the_dead_box(self):
        platform = self.make()
        boxes = box_ids(platform)
        dead = boxes[0]
        platform.fail_box(dead)
        # The dead box is the hottest: the strategy would drain it
        # first if it believed the box alive.
        util = {b: 0.0 for b in boxes}
        util[dead] = 3.0
        assert health_report(platform)[dead].state == FAILED
        live = reported(platform, util)
        assert dead not in live and len(live) == len(boxes) - 1
        assert rebalance_hot_edges(live, set()) == []

    def test_tick_drains_a_live_box_not_the_dead_one(self):
        platform = self.make()
        boxes = box_ids(platform)
        dead, live = boxes[0], boxes[1]
        platform.fail_box(dead)
        util = {b: 0.0 for b in boxes}
        util[dead] = util[live] = 3.0
        drained = set()
        applied = tick(1.0, reported(platform, util), drained)
        assert targets(applied, DRAIN) == [live]
        assert drained == {live}


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
        actions = rebalance_hot_edges(
            {"box:a": 0.05, "box:b": 2.5, "box:c": 0.9, "box:d": 0.1},
            {"box:a"})
        assert [(kind, box) for kind, box, _ in actions] \
            == [(UNDRAIN, "box:a"), (DRAIN, "box:b")]
        assert actions[0][2] == "cooled util=0.05"
        assert actions[1][2] == f"util=2.50>={HOT_UTILIZATION:g}"

    def test_rebalance_noops_when_balanced(self):
        assert rebalance_hot_edges(
            {"box:a": 0.6, "box:b": 0.7}, set()) == []

    def test_noop_plan_shape(self):
        # No box reported: nothing to plan, and a drained box the
        # caller left out stays drained.
        drained = {"box:a"}
        assert rebalance_hot_edges({}, drained) == []
        assert tick(2.0, {}, drained) == [] and drained == {"box:a"}

    def test_drains_hottest_first_and_caps_per_tick(self):
        util = {f"box:{i}": 2.0 + i for i in range(6)}
        assert MAX_ACTIONS == 2
        assert targets(rebalance_hot_edges(util, set()), DRAIN) \
            == ["box:5", "box:4"]

    def test_never_plans_below_min_active(self):
        hot = {f"box:{i}": 3.0 for i in range(MIN_ACTIVE)}
        assert rebalance_hot_edges(hot, set()) == []
        actions = rebalance_hot_edges({**hot, "box:z": 0.0}, set())
        assert len(targets(actions, DRAIN)) == 1

    def test_drain_budget_counts_the_undrains(self):
        # One active box below MIN_ACTIVE: the undrain brings the
        # deployment back to MIN_ACTIVE, and no drain takes it under.
        assert MIN_ACTIVE == 2
        actions = rebalance_hot_edges({"box:cool": 0.0, "box:hot": 3.0},
                                      {"box:cool"})
        assert [(kind, box) for kind, box, _ in actions] \
            == [(UNDRAIN, "box:cool")]

    def test_failed_drained_boxes_stay_drained(self):
        # The caller leaves the failed box:a out of its utilization.
        assert rebalance_hot_edges(
            {"box:b": 0.0, "box:c": 0.0}, {"box:a"}) == []


# ---------------------------------------------------------------------------
# Applying a plan: tick's drain and undrain on the caller's drained set


class TestPlanApplier:
    def test_drain_and_undrain_round_trip(self):
        box = "box:a"
        drained = set()
        drains = METRICS.counter("optimizer.drains").value
        undrains = METRICS.counter("optimizer.undrains").value
        assert tick(1.0, {box: 3.0, "box:x": 0.0, "box:y": 0.0},
                    drained) == [(DRAIN, box, "util=3.00>=2")]
        assert drained == {box}
        assert tick(2.0, {box: 0.0, "box:x": 0.0, "box:y": 0.0},
                    drained) == [(UNDRAIN, box, "cooled util=0.00")]
        assert drained == set()
        assert METRICS.counter("optimizer.drains").value == drains + 1
        assert METRICS.counter("optimizer.undrains").value == undrains + 1

    def test_noop_actions_apply_without_side_effects(self):
        drained = {"box:a"}
        actions = METRICS.counter("optimizer.actions").value
        assert tick(1.0, {"box:a": 1.0, "box:b": 1.0}, drained) == []
        assert drained == {"box:a"}
        assert METRICS.counter("optimizer.actions").value == actions


# ---------------------------------------------------------------------------
# The loop end to end: plan, then apply to the caller's drained set


def test_apply_and_tick_take_no_in_flight_request():
    """A box dying mid-request is ``InFlightRequest.fail_box``, called
    by whoever holds the request; the loop has no route to it."""
    assert list(inspect.signature(rebalance_hot_edges).parameters) == \
        ["utilization", "drained"]
    assert list(inspect.signature(tick).parameters) == \
        ["at", "utilization", "drained"]


class TestOptimizerLoop:
    def test_healthy_platform_ticks_to_noop(self):
        platform = make_platform()
        util = reported(platform, {})
        assert sorted(util) == box_ids(platform)
        drained = set()
        assert tick(1.0, util, drained) == [] and drained == set()

    def test_rebalance_follows_load_then_returns_capacity(self):
        platform = make_platform()
        boxes = box_ids(platform)
        util = {b: 0.0 for b in boxes}
        util[boxes[0]] = 3.0
        drained = set()
        applied = tick(1.0, reported(platform, util), drained)
        assert targets(applied, DRAIN) == [boxes[0]]
        assert drained == {boxes[0]}
        util[boxes[0]] = 0.0  # the hot spot cooled: capacity returns
        applied = tick(2.0, reported(platform, util), drained)
        assert targets(applied, UNDRAIN) == [boxes[0]]
        assert drained == set()

    def test_tick_counters_advance(self):
        before = METRICS.counter("optimizer.ticks").value
        audits_before = METRICS.counter("optimizer.audits").value
        util = reported(make_platform(), {})
        tick(1.0, util, set())
        tick(2.0, util, set())
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
