"""The apply stage: action plans executed on a platform.

:class:`PlanApplier` turns an :class:`~repro.core.optimizer.actions.ActionPlan`
into platform state changes.  A **drain** takes the box out of the
planner (:meth:`~repro.core.platform.NetAggPlatform.drain_box`), so
every tree built from then on rewires around it through the §3.1 path;
the guard refuses a drain that would leave fewer than
:data:`~repro.core.optimizer.strategies.MIN_ACTIVE` active boxes.  An
**undrain** returns the box to the planner.

Nothing is moved off a drained box: the applier runs between requests,
and a platform's boxes hold nothing between requests (a request's state
ends with the call that runs it).  A box that dies while a request is
in flight is :meth:`repro.core.recovery.InFlightRequest.fail_box`,
called by whoever holds the request.

Every action emits an ``optimizer.action`` instant and every applied
one an ``optimizer.drain`` / ``optimizer.undrain`` instant, inside one
``optimizer.apply`` span per plan, so ``python -m repro analyze`` can
attribute each applied action to its tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.optimizer.actions import DRAIN, Action, ActionPlan
from repro.core.optimizer.strategies import MIN_ACTIVE
from repro.obs import METRICS, get_tracer


@dataclass
class ApplyResult:
    """What one plan application actually did."""

    applied: List[Action] = field(default_factory=list)
    skipped: List[Tuple[Action, str]] = field(default_factory=list)


class PlanApplier:
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

    def apply(self, plan: ActionPlan) -> ApplyResult:
        """Execute ``plan``; returns what was applied and skipped."""
        at = max(plan.at, self._platform.clock)
        result = ApplyResult()
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

    def _apply_one(self, action: Action, at: float,
                   result: ApplyResult) -> None:
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
