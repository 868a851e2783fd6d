"""Differential oracle for the self-healing control loop.

``_FrozenAuditor`` -> ``_frozen_rebalance_hot_edges`` ->
``_FrozenPlanApplier`` on a ``_FrozenPlanDrainShim``, tied together by
``_FrozenOptimizerLoop``, are verbatim copies of the staged loop as it
stood when it was a six-module package: a health provider, a frozen
audit report, a typed action plan, and an applier whose guard refused a
drain that would leave fewer than ``MIN_ACTIVE`` active boxes.  Only the
imports and the class names differ.

Hypothesis draws 1-12 boxes, a drained and a failed subset of them, and
1-20 ticks of per-box utilizations that hit the thresholds exactly.
The frozen loop sees every box: the failed ones report ``failed``
through its health provider and stay in its shim's topology.  The live
loop (``live_tick``, the one adapter to the code under test) is handed
only the live boxes' utilizations.  After every tick both must have
applied the same ``(kind, target, reason)`` actions and hold the same
drained set; wherever the frozen guard refused nothing, they must also
leave the same ``optimizer.*`` trace records (in ``seq`` order, with
times and tags) and the same ``optimizer.*`` counter deltas.

A second property holds the invariant the guard used to keep: a tick
that starts with at least ``MIN_ACTIVE`` active boxes leaves at least
that many, and it touches no box the caller left out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import METRICS, get_tracer, tracing
from tests.health import FAILED, HEALTHY, Beat

# -- the live loop's API: the only lines that follow the code under test

from repro.core.optimizer import tick as live_tick


# -- end of the adapter


class _BoxInfo(NamedTuple):
    box_id: str


class _Boxes:
    """A topology stand-in: the shim and the guard read only box ids."""

    def __init__(self, box_ids) -> None:
        self._ids = sorted(box_ids)

    def all_boxes(self) -> List[_BoxInfo]:
        return [_BoxInfo(box_id) for box_id in self._ids]


# ---------------------------------------------------------------------------
# Frozen copy (actions.py, strategies.py, audit.py, apply.py, loop.py and
# fig_selfheal.PlanDrainShim as they stood)

DRAIN = "drain"
UNDRAIN = "undrain"

ACTION_KINDS = (DRAIN, UNDRAIN)


@dataclass(frozen=True)
class _FrozenAction:
    """One optimizer action.

    Attributes:
        kind: one of :data:`ACTION_KINDS`.
        target: box id the action applies to.
        reason: why the strategy chose it (audited metric + threshold),
            carried onto the ``optimizer.action`` trace instant so
            ``python -m repro analyze`` can attribute the decision.
    """

    kind: str
    target: str
    reason: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}")
        if not self.target:
            raise ValueError(f"{self.kind} action needs a target")


@dataclass(frozen=True)
class _FrozenActionPlan:
    """The strategy's ordered action batch for one audit."""

    at: float
    actions: Tuple[_FrozenAction, ...] = ()


@dataclass(frozen=True)
class _FrozenBoxAudit:
    """One box's audited state at one tick."""

    box_id: str
    state: str            #: heartbeat state
    utilization: float    #: offered-load fraction of proc capacity
    drained: bool = False #: currently drained by the optimizer


@dataclass(frozen=True)
class _FrozenAuditReport:
    """Everything one optimizer tick knows about the platform."""

    at: float
    boxes: Tuple[_FrozenBoxAudit, ...]


class _FrozenAuditor:
    """Builds :class:`AuditReport` snapshots from live providers."""

    def __init__(
        self,
        health: Callable[[], Dict[str, object]],
        utilization: Callable[[], Dict[str, float]],
        drained: Callable[[], Set[str]],
    ) -> None:
        self._health = health
        self._utilization = utilization
        self._drained = drained
        self._m_audits = METRICS.counter("optimizer.audits")

    def audit(self, at: float) -> _FrozenAuditReport:
        """One consistent snapshot at virtual time ``at``."""
        tracer = get_tracer()
        span = tracer.begin("optimizer.audit", at, layer="optimizer") \
            if tracer.enabled else 0
        try:
            util = self._utilization()
            drained = self._drained()
            report = _FrozenAuditReport(at=at, boxes=tuple(
                _FrozenBoxAudit(
                    box_id=box_id,
                    state=beat.state,
                    utilization=float(util.get(box_id, 0.0)),
                    drained=box_id in drained,
                )
                for box_id, beat in sorted(self._health().items())
            ))
            self._m_audits.inc()
            return report
        finally:
            if span:
                tracer.end(span, at)


#: Utilization at or above which a box is drained.  It sits well above
#: saturation: plain concentration is what on-path aggregation is *for*
#: (draining a merely-busy box forfeits the uplink byte reduction), so
#: only boxes whose effective rate collapsed under degradation -- where
#: aggregating there is slower than not aggregating at all -- qualify.
HOT_UTILIZATION = 2.0

#: Utilization at or below which a drained box returns to the planner.
COLD_UTILIZATION = 0.5

#: Cap on actions per tick: the loop moves a little every tick rather
#: than everything at once, so a mis-audit cannot thrash the whole
#: deployment.
MAX_ACTIONS = 2

#: Never drain below this many un-drained, non-failed boxes (the
#: applier's guard refuses the drain otherwise).
MIN_ACTIVE = 2


def _headroom(report: _FrozenAuditReport) -> int:
    """How many boxes may still be taken out of rotation this tick."""
    active = sum(1 for a in report.boxes
                 if not a.drained and a.state != "failed")
    return max(0, active - MIN_ACTIVE)


def _frozen_rebalance_hot_edges(
        report: _FrozenAuditReport) -> _FrozenActionPlan:
    """Drain hot boxes; return cooled drained boxes to duty."""
    actions: List[_FrozenAction] = []
    # Un-drains first: they add capacity before anything is removed,
    # and cost nothing (the box simply rejoins the planner).
    cooled = [
        a for a in report.boxes
        if a.drained and a.state != "failed"
        and a.utilization <= COLD_UTILIZATION
    ]
    cooled.sort(key=lambda a: (a.utilization, a.box_id))
    actions.extend(
        _FrozenAction(kind=UNDRAIN, target=a.box_id,
                      reason=f"cooled util={a.utilization:.2f}")
        for a in cooled[:MAX_ACTIONS]
    )
    hot = [
        a for a in report.boxes
        if not a.drained and a.state != "failed"
        and a.utilization >= HOT_UTILIZATION
    ]
    hot.sort(key=lambda a: (-a.utilization, a.box_id))
    budget = min(MAX_ACTIONS, _headroom(report) + len(actions))
    actions.extend(
        _FrozenAction(kind=DRAIN, target=a.box_id,
                      reason=f"util={a.utilization:.2f}>={HOT_UTILIZATION:g}")
        for a in hot[:budget]
    )
    return _FrozenActionPlan(at=report.at, actions=tuple(actions))


@dataclass
class _FrozenApplyResult:
    """What one plan application actually did."""

    applied: List[_FrozenAction] = field(default_factory=list)
    skipped: List[Tuple[_FrozenAction, str]] = field(default_factory=list)


class _FrozenPlanApplier:
    """Executes action plans on a platform (or any drain-capable shim).

    ``platform`` must provide ``drain_box`` / ``undrain_box`` /
    ``drained_boxes`` / ``failed_boxes``, ``topology`` and ``clock``
    (a :class:`~repro.core.platform.NetAggPlatform` does).
    """

    def __init__(self, platform) -> None:
        self._platform = platform
        self._m_actions = METRICS.counter("optimizer.actions")
        self._m_drains = METRICS.counter("optimizer.drains")
        self._m_undrains = METRICS.counter("optimizer.undrains")

    def apply(self, plan: _FrozenActionPlan) -> _FrozenApplyResult:
        """Execute ``plan``; returns what was applied and skipped."""
        at = max(plan.at, self._platform.clock)
        result = _FrozenApplyResult()
        tracer = get_tracer()
        span = tracer.begin("optimizer.apply", at, layer="optimizer",
                            actions=len(plan.actions)) \
            if tracer.enabled else 0
        try:
            for action in plan.actions:
                self._apply_one(action, at, result)
        finally:
            if span:
                tracer.end(span, max(at, self._platform.clock))
        return result

    def _active_boxes(self, excluding: str) -> List[str]:
        drained = self._platform.drained_boxes()
        failed = self._platform.failed_boxes()
        return [info.box_id for info in self._platform.topology.all_boxes()
                if info.box_id not in drained and info.box_id not in failed
                and info.box_id != excluding]

    def _instant(self, name: str, at: float, **tags: object) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(name, at, layer="optimizer", **tags)

    def _apply_one(self, action: _FrozenAction, at: float,
                   result: _FrozenApplyResult) -> None:
        self._instant("optimizer.action", at, kind=action.kind,
                      target=action.target, reason=action.reason)
        self._m_actions.inc()
        if action.kind == DRAIN:
            if len(self._active_boxes(excluding=action.target)) \
                    < MIN_ACTIVE:
                result.skipped.append((action, "guard: too few active"))
                return
            self._platform.drain_box(action.target)
            self._instant("optimizer.drain", at, box=action.target)
            self._m_drains.inc()
        else:
            self._platform.undrain_box(action.target)
            self._instant("optimizer.undrain", at, box=action.target)
            self._m_undrains.inc()
        result.applied.append(action)


@dataclass(frozen=True)
class _FrozenTickResult:
    """Everything one tick produced (report, plan, what was applied)."""

    report: _FrozenAuditReport
    plan: _FrozenActionPlan
    result: _FrozenApplyResult


class _FrozenOptimizerLoop:
    """One self-healing control loop over one platform."""

    def __init__(self, auditor: _FrozenAuditor,
                 applier: _FrozenPlanApplier) -> None:
        self._auditor = auditor
        self._applier = applier
        self._m_ticks = METRICS.counter("optimizer.ticks")

    def tick(self, at: float) -> _FrozenTickResult:
        """Run one audit/strategy/apply cycle at virtual time ``at``."""
        report = self._auditor.audit(at)
        plan = _frozen_rebalance_hot_edges(report)
        result = self._applier.apply(plan)
        self._m_ticks.inc()
        return _FrozenTickResult(report=report, plan=plan, result=result)


class _FrozenPlanDrainShim:
    """The drain-capable surface :class:`PlanApplier` needs, plan-side.

    No box runtimes exist at plan time; the drained set is the output
    the planner consumes.
    """

    def __init__(self, topo) -> None:
        self.topology = topo
        self.clock = 0.0
        self._drained: Set[str] = set()

    def drain_box(self, box_id: str) -> None:
        self._drained.add(box_id)

    def undrain_box(self, box_id: str) -> None:
        self._drained.discard(box_id)

    def drained_boxes(self) -> Set[str]:
        return set(self._drained)

    def failed_boxes(self) -> Set[str]:
        return set()


# ---------------------------------------------------------------------------
# Harness


class _FrozenFleet(_FrozenPlanDrainShim):
    """The frozen shim over every box, with the drawn failed ones."""

    def __init__(self, boxes, drained, failed) -> None:
        super().__init__(_Boxes(boxes))
        self._drained = set(drained)
        self.failed = set(failed)

    def failed_boxes(self) -> Set[str]:
        return set(self.failed)


def _frozen_loop(fleet: _FrozenFleet,
                 util: Dict[str, float]) -> _FrozenOptimizerLoop:
    """The frozen loop reading ``util`` (mutated between ticks)."""
    ids = [info.box_id for info in fleet.topology.all_boxes()]

    def health():
        return {b: Beat(b, FAILED if b in fleet.failed else HEALTHY)
                for b in ids}

    return _FrozenOptimizerLoop(
        _FrozenAuditor(health=health, utilization=lambda: util,
                       drained=fleet.drained_boxes),
        _FrozenPlanApplier(fleet))


def _records(tracer) -> List[tuple]:
    """Every span and instant the tracer holds, in ``seq`` order."""
    out = [(s.seq, "span", s.name, s.layer, s.start, s.end, s.parent_id,
            s.tags) for s in tracer.spans]
    out += [(i.seq, "instant", i.name, i.layer, i.at, i.tags)
            for i in tracer.instants]
    return sorted(out, key=lambda record: record[0])


def _traced(step: Callable[[], object]):
    """``(step(), optimizer.* records, optimizer.* counter deltas)``."""
    before = METRICS.snapshot("optimizer.")
    with tracing() as tracer:
        out = step()
    after = METRICS.snapshot("optimizer.")
    deltas = {name: value - before.get(name, 0)
              for name, value in after.items()}
    return out, _records(tracer), deltas


#: Utilizations on and around both thresholds, and between them.
UTILS = st.one_of(
    st.sampled_from([0.0, 0.25, COLD_UTILIZATION, 0.75, 1.0,
                     HOT_UTILIZATION, 2.5, 4.0]),
    st.floats(0.0, 6.0, allow_nan=False),
)


@st.composite
def runs(draw):
    """``(boxes, drained, failed, ticks)``: one loop's whole input."""
    n = draw(st.integers(1, 12))
    boxes = [f"box:{i}" for i in range(n)]
    drained = draw(st.sets(st.sampled_from(boxes)))
    failed = draw(st.sets(st.sampled_from(boxes)))
    ticks = draw(st.lists(st.fixed_dictionaries({b: UTILS for b in boxes}),
                          min_size=1, max_size=20))
    return boxes, drained, failed, ticks


@given(runs())
@settings(max_examples=300, deadline=None)
def test_live_loop_matches_the_frozen_one(run):
    boxes, drained, failed, ticks = run
    fleet = _FrozenFleet(boxes, drained, failed)
    util: Dict[str, float] = {}
    frozen = _frozen_loop(fleet, util)
    live_drained = set(drained)
    for index, drawn in enumerate(ticks):
        at = 0.5 * (index + 1)
        util.clear()
        util.update(drawn)
        fleet.clock = at
        tick, frozen_records, frozen_deltas = _traced(
            lambda: frozen.tick(at))
        live = {b: u for b, u in drawn.items() if b not in failed}
        applied, live_records, live_deltas = _traced(
            lambda: live_tick(at, live, live_drained))
        assert applied == [(a.kind, a.target, a.reason)
                           for a in tick.result.applied], index
        assert live_drained == fleet.drained_boxes(), index
        if not tick.result.skipped:
            assert live_records == frozen_records, index
            assert live_deltas == frozen_deltas, index


@given(runs())
@settings(max_examples=300, deadline=None)
def test_a_tick_never_leaves_fewer_than_min_active(run):
    boxes, drained, failed, ticks = run
    drained = set(drained)
    for index, drawn in enumerate(ticks):
        live = {b: u for b, u in drawn.items() if b not in failed}
        before = set(drained)
        active = len(set(live) - drained)
        live_tick(0.5 * (index + 1), live, drained)
        if active >= MIN_ACTIVE:
            assert len(set(live) - drained) >= MIN_ACTIVE, index
        assert before ^ drained <= set(live), index
