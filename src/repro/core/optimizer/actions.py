"""Typed actions the optimizer emits.

An :class:`Action` is one atomic operation on the platform: drain a box
out of future trees, or return a drained box to the planner.  An
:class:`ActionPlan` is the strategy's output for one audit: an ordered,
deterministic batch of actions stamped with the virtual time, empty
when nothing needs doing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

DRAIN = "drain"
UNDRAIN = "undrain"

ACTION_KINDS = (DRAIN, UNDRAIN)


@dataclass(frozen=True)
class Action:
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
class ActionPlan:
    """The strategy's ordered action batch for one audit."""

    at: float
    actions: Tuple[Action, ...] = ()

    def of_kind(self, kind: str) -> Tuple[Action, ...]:
        return tuple(a for a in self.actions if a.kind == kind)
