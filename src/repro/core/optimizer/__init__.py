"""``repro.core.optimizer`` -- the self-healing control loop.

A deterministic **audit -> strategy -> action plan -> apply** loop that
drains boxes whose effective capacity collapsed and returns them once
they cool, in the spirit of utilization-aware placement of scarce
aggregation resources (SOAR, arXiv 2110.14224):

- :mod:`~repro.core.optimizer.audit` -- snapshot health, utilization
  and the drained set into a frozen :class:`AuditReport`;
- :mod:`~repro.core.optimizer.strategies` -- :func:`rebalance_hot_edges`,
  the one strategy, emitting typed :class:`Action` batches;
- :mod:`~repro.core.optimizer.apply` -- the applier: drain (behind the
  active-box guard) and undrain; the drained set feeds the §3.1
  rewiring of every tree built afterwards;
- :mod:`~repro.core.optimizer.loop` -- :class:`OptimizerLoop.tick`
  tying the stages together on the caller's virtual clock.

Everything the loop does is traced (``optimizer.*`` spans/instants)
and counted (``optimizer.ticks`` / ``.audits`` / ``.actions`` /
``.drains`` / ``.undrains``), so ``python -m repro analyze`` attributes
every applied action.
"""

from repro.core.optimizer.actions import (
    ACTION_KINDS,
    DRAIN,
    UNDRAIN,
    Action,
    ActionPlan,
)
from repro.core.optimizer.apply import ApplyResult, PlanApplier
from repro.core.optimizer.audit import Auditor, AuditReport, BoxAudit
from repro.core.optimizer.loop import OptimizerLoop, TickResult
from repro.core.optimizer.strategies import rebalance_hot_edges

__all__ = [
    "ACTION_KINDS",
    "Action",
    "ActionPlan",
    "ApplyResult",
    "AuditReport",
    "Auditor",
    "BoxAudit",
    "DRAIN",
    "OptimizerLoop",
    "PlanApplier",
    "TickResult",
    "UNDRAIN",
    "rebalance_hot_edges",
]
