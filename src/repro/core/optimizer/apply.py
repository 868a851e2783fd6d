"""The apply stage: action plans executed safely on a platform.

:class:`PlanApplier` turns an :class:`~repro.core.optimizer.actions.ActionPlan`
into platform state changes.  Migrations run a **two-phase
drain-then-cutover protocol**:

1. **drain** -- the box leaves the planner
   (:meth:`~repro.core.platform.NetAggPlatform.drain_box`), so every
   tree built from now on rewires around it through the §3.1 path;
2. **interruption window** -- the optional ``interrupt`` hook runs
   between the phases; the chaos suite uses it to crash boxes
   mid-migration;
3. **cutover** -- the guard re-checks that enough active boxes remain.
   On success the box stays drained (or, if it died in the window, the
   migration is recorded as failed over).  On guard failure the
   migration **rolls back**: the box is un-drained.

There is no parking phase: the applier runs between requests, and a
platform's boxes hold nothing between requests (a request's state ends
with the call that runs it), so there is never a buffered partial to
move.  A migration that lands while a request is mid-flight *is*
:meth:`repro.core.recovery.InFlightRequest.migrate_box`, which parks
that request's partials and adds the expected-count arithmetic of
§3.1; whoever holds the request calls it.

Every action emits an ``optimizer.action`` instant; every migration an
``optimizer.migrate`` span wrapping ``optimizer.drain`` /
``optimizer.cutover`` / ``optimizer.rollback`` instants, so ``python
-m repro analyze`` can attribute each applied action to its tick and
outcome.
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
    ``drained_boxes`` / ``failed_boxes``, ``topology`` and ``clock``
    (a :class:`~repro.core.platform.NetAggPlatform` does).
    ``interrupt`` is the chaos hook invoked between drain and cutover of
    every migration.
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
                      strategy=plan.strategy)
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

        # Phase 1: drain.  The box leaves the planner.
        platform.drain_box(box_id)
        self._instant("optimizer.drain", at, box=box_id)

        # Phase 2: the interruption window.
        if self._interrupt is not None:
            self._interrupt()

        # Phase 3: cutover guard.
        now = self._now(at)
        alive = self._active_boxes(excluding=box_id)
        if box_id in platform.failed_boxes():
            # The source died inside the window: it is out of every
            # plan either way.
            outcome = FAILED_OVER
        elif len(alive) < self._min_active:
            # No safe destination capacity: roll back.
            platform.undrain_box(box_id)
            self._instant("optimizer.rollback", now, box=box_id,
                          outcome=ROLLED_BACK)
            return MigrationOutcome(box_id=box_id, outcome=ROLLED_BACK)
        else:
            # The box stays drained: future trees avoid it.
            outcome = APPLIED
        self._instant("optimizer.cutover", now, box=box_id,
                      outcome=outcome)
        return MigrationOutcome(box_id=box_id, outcome=outcome)
