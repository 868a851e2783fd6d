"""The apply stage: action plans executed safely on a platform.

:class:`PlanApplier` turns an :class:`~repro.core.optimizer.actions.ActionPlan`
into platform state changes.  Migrations run a **two-phase
drain-then-cutover protocol**:

1. **drain** -- the box leaves the planner
   (:meth:`~repro.core.platform.NetAggPlatform.drain_box`), so every
   tree built from now on rewires around it through the §3.1 path; any
   buffered partials are *parked* (removed without touching the
   duplicate-suppression sets, so a replay lands exactly once);
2. **interruption window** -- the optional ``interrupt`` hook runs
   between the phases; the chaos suite uses it to crash boxes
   mid-migration;
3. **cutover** -- the guard re-checks that enough active boxes remain.
   On success the parked partials replay (into the still-live source,
   which finishes its in-flight folds while new work avoids it, or into
   the healthiest surviving box if the source died in the window).  On
   guard failure the migration **rolls back**: the box is un-drained
   and its parked partials replay straight back into it.

A migration that lands while a request is mid-flight *is*
:meth:`repro.core.recovery.InFlightRequest.migrate_box`, which adds the
expected-count arithmetic of §3.1; whoever holds the request calls it.

Every action emits an ``optimizer.action`` instant; every migration an
``optimizer.migrate`` span wrapping ``optimizer.drain`` /
``optimizer.park`` / ``optimizer.cutover`` / ``optimizer.rollback``
instants, so ``python -m repro analyze`` can attribute each applied
action to its tick and outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.core.optimizer.actions import (
    DRAIN,
    MIGRATE,
    NOOP,
    UNDRAIN,
    Action,
    ActionPlan,
)
from repro.obs import METRICS, get_tracer

#: Migration outcomes (the ``outcome`` tag on ``optimizer.migrate``).
APPLIED = "applied"
ROLLED_BACK = "rolled-back"
FAILED_OVER = "failed-over"


@dataclass(frozen=True)
class MigrationOutcome:
    """How one migrate action ended."""

    box_id: str
    outcome: str          #: APPLIED, ROLLED_BACK or FAILED_OVER
    parked: int = 0       #: partials parked during the drain phase
    replayed_to: str = "" #: where they landed ("" when none)


@dataclass
class ApplyResult:
    """What one plan application actually did."""

    plan: ActionPlan
    applied: List[Action] = field(default_factory=list)
    skipped: List[Tuple[Action, str]] = field(default_factory=list)
    migrations: List[MigrationOutcome] = field(default_factory=list)

    @property
    def rollbacks(self) -> int:
        return sum(1 for m in self.migrations
                   if m.outcome == ROLLED_BACK)


class PlanApplier:
    """Executes action plans on a platform (or any drain-capable shim).

    ``platform`` must provide ``drain_box`` / ``undrain_box`` /
    ``drained_boxes`` / ``failed_boxes``, ``topology`` and ``clock``; a
    full :class:`~repro.core.platform.NetAggPlatform` additionally
    provides ``box_runtime`` (for parking).  ``interrupt`` is the
    chaos hook invoked between drain and cutover of every migration.
    ``min_active`` is the cutover guard: a migration or drain that
    would leave fewer than this many active (un-drained, un-failed)
    boxes rolls back / is skipped.
    """

    def __init__(self, platform, interrupt: Optional[Callable[[], None]]
                 = None, min_active: int = 1) -> None:
        if min_active < 1:
            raise ValueError("min_active must be >= 1")
        self._platform = platform
        self._interrupt = interrupt
        self._min_active = min_active
        self._m_actions = METRICS.counter("optimizer.actions")
        self._m_migrations = METRICS.counter("optimizer.migrations")
        self._m_drains = METRICS.counter("optimizer.drains")
        self._m_undrains = METRICS.counter("optimizer.undrains")
        self._m_rollbacks = METRICS.counter("optimizer.rollbacks")

    # -- public ---------------------------------------------------------------

    def apply(self, plan: ActionPlan) -> ApplyResult:
        """Execute ``plan``; returns what was applied and skipped."""
        at = self._now(plan.at)
        result = ApplyResult(plan=plan)
        tracer = get_tracer()
        span = tracer.begin("optimizer.apply", at, layer="optimizer",
                            strategy=plan.strategy,
                            actions=len(plan.actions)) \
            if tracer.enabled else 0
        try:
            for action in plan.actions:
                self._apply_one(action, plan, at, result)
        finally:
            if span:
                tracer.end(span, self._now(at))
        return result

    # -- internals ------------------------------------------------------------

    def _now(self, floor: float) -> float:
        return max(floor, self._platform.clock)

    def _active_boxes(self, excluding: str = "") -> List[str]:
        drained = self._platform.drained_boxes()
        failed = self._platform.failed_boxes()
        boxes = sorted(
            info.box_id for info in self._platform.topology.all_boxes())
        return [b for b in boxes
                if b not in drained and b not in failed
                and b != excluding]

    def _instant(self, name: str, at: float, **tags: object) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(name, at, layer="optimizer", **tags)

    def _apply_one(self, action: Action, plan: ActionPlan, at: float,
                   result: ApplyResult) -> None:
        if action.kind == NOOP:
            result.applied.append(action)
            return
        self._instant("optimizer.action", at, kind=action.kind,
                      target=action.target, reason=action.reason,
                      strategy=plan.strategy, cost=action.cost)
        self._m_actions.inc()
        if action.kind == DRAIN:
            if len(self._active_boxes(excluding=action.target)) \
                    < self._min_active:
                result.skipped.append((action, "guard: too few active"))
                return
            self._platform.drain_box(action.target)
            self._instant("optimizer.drain", at, box=action.target)
            self._m_drains.inc()
            result.applied.append(action)
        elif action.kind == UNDRAIN:
            self._platform.undrain_box(action.target)
            self._instant("optimizer.undrain", at, box=action.target)
            self._m_undrains.inc()
            result.applied.append(action)
        elif action.kind == MIGRATE:
            outcome = self._migrate(action, plan, at)
            result.migrations.append(outcome)
            if outcome.outcome == ROLLED_BACK:
                result.skipped.append((action, "rolled back"))
            else:
                result.applied.append(action)

    def _migrate(self, action: Action, plan: ActionPlan,
                 at: float) -> MigrationOutcome:
        box_id = action.target
        tracer = get_tracer()
        span = tracer.begin("optimizer.migrate", at, layer="optimizer",
                            box=box_id, strategy=plan.strategy) \
            if tracer.enabled else 0
        try:
            outcome = self._migrate_phases(box_id, at)
            self._m_migrations.inc()
            if outcome.outcome == ROLLED_BACK:
                self._m_rollbacks.inc()
            return outcome
        finally:
            if span:
                tracer.end(span, self._now(at))

    def _migrate_phases(self, box_id: str, at: float) -> MigrationOutcome:
        platform = self._platform

        # Phase 1: drain.  The box leaves the planner; its buffered
        # partials are parked so nothing is lost whatever happens next.
        platform.drain_box(box_id)
        self._instant("optimizer.drain", at, box=box_id)
        runtime = getattr(platform, "box_runtime", None)
        parked = runtime(box_id).park_pending() if runtime else []
        if parked:
            self._instant("optimizer.park", at, box=box_id,
                          parked=len(parked))

        # Phase 2: the interruption window.
        if self._interrupt is not None:
            self._interrupt()

        # Phase 3: cutover guard, then replay.
        now = self._now(at)
        alive = self._active_boxes(excluding=box_id)
        failed = platform.failed_boxes()
        if len(alive) < self._min_active and box_id not in failed:
            # No safe destination capacity: roll back.  Parked partials
            # replay into the still-live source under their original
            # tags (parking removed them from the suppression sets).
            platform.undrain_box(box_id)
            self._replay(box_id, parked)
            self._instant("optimizer.rollback", now, box=box_id,
                          parked=len(parked), outcome=ROLLED_BACK)
            return MigrationOutcome(box_id=box_id, outcome=ROLLED_BACK,
                                    parked=len(parked),
                                    replayed_to=box_id if parked else "")
        if box_id in failed:
            # The source died inside the window; the parked values
            # survive precisely because drain parked them first.
            dest = alive[0] if alive and parked else ""
            if dest:
                self._replay(dest, parked)
            self._instant("optimizer.cutover", now, box=box_id,
                          dest=dest or "none", outcome=FAILED_OVER)
            return MigrationOutcome(box_id=box_id, outcome=FAILED_OVER,
                                    parked=len(parked),
                                    replayed_to=dest)
        # Normal cutover: the box stays drained (future trees avoid
        # it); parked partials replay into it so its in-flight requests
        # still complete exactly.
        self._replay(box_id, parked)
        self._instant("optimizer.cutover", now, box=box_id,
                      dest=box_id if parked else "planner",
                      outcome=APPLIED)
        return MigrationOutcome(box_id=box_id, outcome=APPLIED,
                                parked=len(parked),
                                replayed_to=box_id if parked else "")

    def _replay(self, box_id: str, parked) -> None:
        """Replay parked partials into ``box_id``'s runtime (they came
        out of a runtime, so a platform without any parks nothing)."""
        for p in parked:
            self._platform.box_runtime(box_id).submit_partial(
                p.app, p.request_id, p.source, p.value)
