"""``repro.core.optimizer`` -- the self-healing control plane.

A deterministic **audit -> strategy -> action-plan -> apply** loop that
turns the reactive overload machinery (PR 3) and the observability
feeds (PR 4/5) into closed-loop self-healing, in the spirit of
utilization-aware placement of scarce aggregation resources (SOAR,
arXiv 2110.14224):

- :mod:`~repro.core.optimizer.audit` -- snapshot heartbeats,
  utilization and shim-retry deltas into a frozen
  :class:`AuditReport`;
- :mod:`~repro.core.optimizer.strategies` -- pluggable, deterministic
  policies (``stabilize_p99``, ``consolidate_underused``,
  ``rebalance_hot_edges``) emitting typed :class:`Action` batches;
- :mod:`~repro.core.optimizer.apply` -- the two-phase
  drain-then-cutover executor (rollback on cutover-guard failure, §3.1
  rewiring for the tree changes);
- :mod:`~repro.core.optimizer.loop` -- :class:`OptimizerLoop.tick`
  tying the stages together on the caller's virtual clock.

Everything the loop does is traced (``optimizer.*`` spans/instants)
and counted (``optimizer.audits`` / ``.actions`` / ``.migrations`` /
``.rollbacks`` ...), so ``python -m repro analyze`` attributes every
applied action.
"""

from repro.core.optimizer.actions import (
    ACTION_KINDS,
    DRAIN,
    MIGRATE,
    NOOP,
    UNDRAIN,
    Action,
    ActionPlan,
    noop_plan,
)
from repro.core.optimizer.apply import (
    APPLIED,
    FAILED_OVER,
    ROLLED_BACK,
    ApplyResult,
    MigrationOutcome,
    PlanApplier,
)
from repro.core.optimizer.audit import Auditor, AuditReport, BoxAudit
from repro.core.optimizer.loop import OptimizerLoop, TickResult
from repro.core.optimizer.strategies import (
    STRATEGIES,
    StrategyConfig,
    consolidate_underused,
    get_strategy,
    rebalance_hot_edges,
    stabilize_p99,
    strategy,
)

__all__ = [
    "ACTION_KINDS",
    "APPLIED",
    "Action",
    "ActionPlan",
    "ApplyResult",
    "AuditReport",
    "Auditor",
    "BoxAudit",
    "DRAIN",
    "FAILED_OVER",
    "MIGRATE",
    "MigrationOutcome",
    "NOOP",
    "OptimizerLoop",
    "PlanApplier",
    "ROLLED_BACK",
    "STRATEGIES",
    "StrategyConfig",
    "TickResult",
    "UNDRAIN",
    "consolidate_underused",
    "get_strategy",
    "noop_plan",
    "rebalance_hot_edges",
    "stabilize_p99",
    "strategy",
]
