"""Pluggable optimizer strategies: audit report in, action plan out.

A strategy is a pure function ``(report, config) -> ActionPlan``; the
registry maps names to implementations so experiments and the CLI can
select one by string.  All strategies are deterministic: candidates are
ranked by the audited metric with box-id tiebreaks, and capped at
``config.max_actions`` per tick, so one seed reproduces the exact
action sequence.

Built-ins:

``stabilize_p99``
    Reactive tail defence: migrate work off boxes whose health is
    ``suspect`` (silent boxes, the ones behind retry storms), in box-id
    order.
``consolidate_underused``
    Cost control: drain boxes whose utilization sits below the cold
    threshold so their work folds into busier neighbours; un-drain
    nothing (that is rebalancing's job).
``rebalance_hot_edges``
    Load balance: migrate work off boxes above the hot utilization
    threshold and return previously-drained boxes to the planner once
    they have cooled below the cold threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.core.optimizer.actions import (
    DRAIN,
    MIGRATE,
    UNDRAIN,
    Action,
    ActionPlan,
    noop_plan,
)
from repro.core.optimizer.audit import AuditReport

Strategy = Callable[[AuditReport, "StrategyConfig"], ActionPlan]

#: name -> strategy implementation.
STRATEGIES: Dict[str, Strategy] = {}


def strategy(name: str) -> Callable[[Strategy], Strategy]:
    """Register a strategy under ``name``."""
    def wrap(fn: Strategy) -> Strategy:
        if name in STRATEGIES:
            raise ValueError(f"strategy {name!r} already registered")
        STRATEGIES[name] = fn
        return fn
    return wrap


def get_strategy(name: str) -> Strategy:
    try:
        return STRATEGIES[name]
    except KeyError:
        known = ", ".join(sorted(STRATEGIES))
        raise KeyError(f"unknown strategy {name!r} (known: {known})")


@dataclass(frozen=True)
class StrategyConfig:
    """Thresholds shared by the built-in strategies.

    Attributes:
        hot_utilization: offered-load fraction above which a box is a
            rebalance candidate.
        cold_utilization: fraction below which a box is a consolidation
            candidate (and below which a drained box may return).
        max_actions: cap on non-noop actions per tick -- the control
            loop moves a little every tick rather than everything at
            once, so a mis-audit cannot thrash the whole deployment.
        min_active: never drain/migrate below this many un-drained,
            non-failed boxes (the cutover guard refuses otherwise).
    """

    hot_utilization: float = 0.75
    cold_utilization: float = 0.15
    max_actions: int = 2
    min_active: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.cold_utilization < self.hot_utilization:
            raise ValueError(
                "need 0 <= cold_utilization < hot_utilization "
                f"(got {self.cold_utilization}, {self.hot_utilization})"
            )
        if self.max_actions < 1:
            raise ValueError("max_actions must be >= 1")
        if self.min_active < 1:
            raise ValueError("min_active must be >= 1")


def _active_count(report: AuditReport) -> int:
    """Boxes still accepting new trees (not drained, not failed)."""
    return sum(1 for a in report.boxes
               if not a.drained and a.state != "failed")


def _headroom(report: AuditReport, config: StrategyConfig) -> int:
    """How many boxes may still be taken out of rotation this tick."""
    return max(0, _active_count(report) - config.min_active)


@strategy("stabilize_p99")
def stabilize_p99(report: AuditReport,
                  config: StrategyConfig) -> ActionPlan:
    """Migrate off distrusted boxes, in box-id order."""
    candidates = [
        a for a in report.boxes
        if a.distrusted and not a.drained and a.state != "failed"
    ]
    candidates.sort(key=lambda a: a.box_id)
    budget = min(config.max_actions, _headroom(report, config))
    actions: List[Action] = [
        Action(kind=MIGRATE, target=a.box_id,
               reason=f"state={a.state}")
        for a in candidates[:budget]
    ]
    if not actions:
        return noop_plan("stabilize_p99", report.at, reason="all trusted")
    return ActionPlan(strategy="stabilize_p99", at=report.at,
                      actions=tuple(actions))


@strategy("consolidate_underused")
def consolidate_underused(report: AuditReport,
                          config: StrategyConfig) -> ActionPlan:
    """Drain cold, healthy boxes so work folds into busier ones."""
    candidates = [
        a for a in report.boxes
        if not a.drained and a.state == "healthy"
        and a.utilization < config.cold_utilization
    ]
    candidates.sort(key=lambda a: (a.utilization, a.box_id))
    budget = min(config.max_actions, _headroom(report, config))
    actions = [
        Action(kind=DRAIN, target=a.box_id,
               reason=f"util={a.utilization:.2f}"
                      f"<{config.cold_utilization:g}")
        for a in candidates[:budget]
    ]
    if not actions:
        return noop_plan("consolidate_underused", report.at,
                         reason="nothing cold")
    return ActionPlan(strategy="consolidate_underused", at=report.at,
                      actions=tuple(actions))


@strategy("rebalance_hot_edges")
def rebalance_hot_edges(report: AuditReport,
                        config: StrategyConfig) -> ActionPlan:
    """Migrate off hot boxes; return cooled drained boxes to duty."""
    actions: List[Action] = []
    # Un-drains first: they add capacity before anything is removed,
    # and cost nothing (the box simply rejoins the planner).
    cooled = [
        a for a in report.boxes
        if a.drained and a.state not in ("failed",)
        and a.utilization <= config.cold_utilization
    ]
    cooled.sort(key=lambda a: (a.utilization, a.box_id))
    actions.extend(
        Action(kind=UNDRAIN, target=a.box_id,
               reason=f"cooled util={a.utilization:.2f}")
        for a in cooled[:config.max_actions]
    )
    hot = [
        a for a in report.boxes
        if not a.drained and a.state != "failed"
        and a.utilization >= config.hot_utilization
    ]
    hot.sort(key=lambda a: (-a.utilization, a.box_id))
    undrains = len(actions)
    budget = min(config.max_actions,
                 _headroom(report, config) + undrains)
    actions.extend(
        Action(kind=MIGRATE, target=a.box_id,
               reason=f"util={a.utilization:.2f}"
                      f">={config.hot_utilization:g}")
        for a in hot[:budget]
    )
    if not actions:
        return noop_plan("rebalance_hot_edges", report.at,
                         reason="balanced")
    return ActionPlan(strategy="rebalance_hot_edges", at=report.at,
                      actions=tuple(actions))
