"""Typed actions the optimizer strategies emit.

An :class:`Action` is one atomic operation on the platform -- migrate a
box's subtree upstream, drain a box out of future trees, return a
drained box to the planner, or do nothing.  An :class:`ActionPlan`
is one strategy's output for one audit: an ordered, deterministic
batch of actions stamped with the strategy name and virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

MIGRATE = "migrate"
DRAIN = "drain"
UNDRAIN = "undrain"
NOOP = "noop"

ACTION_KINDS = (MIGRATE, DRAIN, UNDRAIN, NOOP)


@dataclass(frozen=True)
class Action:
    """One optimizer action.

    Attributes:
        kind: one of :data:`ACTION_KINDS`.
        target: box id the action applies to (empty for ``noop``).
        reason: why the strategy chose it (audited metric + threshold),
            carried onto the ``optimizer.action`` trace instant so
            ``python -m repro analyze`` can attribute the decision.
    """

    kind: str
    target: str = ""
    reason: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.kind != NOOP and not self.target:
            raise ValueError(f"{self.kind} action needs a target")


@dataclass(frozen=True)
class ActionPlan:
    """One strategy's ordered action batch for one audit."""

    strategy: str
    at: float
    actions: Tuple[Action, ...] = ()

    @property
    def is_noop(self) -> bool:
        return all(a.kind == NOOP for a in self.actions)

    def of_kind(self, kind: str) -> Tuple[Action, ...]:
        return tuple(a for a in self.actions if a.kind == kind)


def noop_plan(strategy: str, at: float, reason: str = "") -> ActionPlan:
    """The empty plan every strategy returns when nothing is wrong."""
    return ActionPlan(strategy=strategy, at=at,
                      actions=(Action(kind=NOOP, reason=reason),))
