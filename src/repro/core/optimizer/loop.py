"""The control loop: audit -> strategy -> action-plan -> apply.

:class:`OptimizerLoop` ties the stages together behind one ``tick(at)``
call.  Each tick is deterministic and synchronous: the auditor
snapshots the live feeds, the selected strategy turns the report into
an :class:`~repro.core.optimizer.actions.ActionPlan`, and the applier
executes it through the drain-then-cutover protocol.  A ``dry_run``
loop stops after planning -- useful for previews and for tests
asserting strategy decisions without platform side effects.

The loop never sleeps or schedules itself; the caller decides the
cadence (an experiment ticks it per job arrival, the chaos suite per
generated step), which keeps every layer on its own virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.optimizer.actions import ActionPlan
from repro.core.optimizer.apply import ApplyResult, PlanApplier
from repro.core.optimizer.audit import Auditor, AuditReport
from repro.core.optimizer.strategies import (
    Strategy,
    StrategyConfig,
    get_strategy,
)
from repro.obs import METRICS


@dataclass(frozen=True)
class TickResult:
    """Everything one tick produced (report, plan, what was applied)."""

    report: AuditReport
    plan: ActionPlan
    result: Optional[ApplyResult] = None  #: None on dry-run ticks

    @property
    def acted(self) -> bool:
        return self.result is not None and bool(self.result.applied) \
            and not self.plan.is_noop


class OptimizerLoop:
    """One self-healing control loop over one platform."""

    def __init__(
        self,
        auditor: Auditor,
        strategy: Union[str, Strategy],
        applier: PlanApplier,
        config: Optional[StrategyConfig] = None,
        dry_run: bool = False,
    ) -> None:
        self._auditor = auditor
        self._strategy = (get_strategy(strategy)
                          if isinstance(strategy, str) else strategy)
        self._applier = applier
        self._config = config or StrategyConfig()
        self._dry_run = dry_run
        self._m_ticks = METRICS.counter("optimizer.ticks")
        self.history: list = []  #: TickResult per tick, oldest first

    @property
    def config(self) -> StrategyConfig:
        return self._config

    def tick(self, at: float) -> TickResult:
        """Run one audit/strategy/apply cycle at virtual time ``at``."""
        report = self._auditor.audit(at)
        plan = self._strategy(report, self._config)
        result = None
        if not self._dry_run:
            result = self._applier.apply(plan)
        self._m_ticks.inc()
        tick = TickResult(report=report, plan=plan, result=result)
        self.history.append(tick)
        return tick
