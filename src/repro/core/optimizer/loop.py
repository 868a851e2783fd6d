"""The control loop: audit -> strategy -> action plan -> apply.

:class:`OptimizerLoop` ties the stages together behind one ``tick(at)``
call.  Each tick is deterministic and synchronous: the auditor
snapshots the live feeds, :func:`rebalance_hot_edges` turns the report
into an :class:`~repro.core.optimizer.actions.ActionPlan`, and the
applier drains and undrains boxes accordingly.

The loop never sleeps or schedules itself; the caller decides the
cadence (``fig_selfheal`` ticks it per job arrival), which keeps every
layer on its own virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.optimizer.actions import ActionPlan
from repro.core.optimizer.apply import ApplyResult, PlanApplier
from repro.core.optimizer.audit import Auditor, AuditReport
from repro.core.optimizer.strategies import rebalance_hot_edges
from repro.obs import METRICS


@dataclass(frozen=True)
class TickResult:
    """Everything one tick produced (report, plan, what was applied)."""

    report: AuditReport
    plan: ActionPlan
    result: ApplyResult


class OptimizerLoop:
    """One self-healing control loop over one platform."""

    def __init__(self, auditor: Auditor, applier: PlanApplier) -> None:
        self._auditor = auditor
        self._applier = applier
        self._m_ticks = METRICS.counter("optimizer.ticks")

    def tick(self, at: float) -> TickResult:
        """Run one audit/strategy/apply cycle at virtual time ``at``."""
        report = self._auditor.audit(at)
        plan = rebalance_hot_edges(report)
        result = self._applier.apply(plan)
        self._m_ticks.inc()
        return TickResult(report=report, plan=plan, result=result)
