"""The optimizer's strategy: audit report in, action plan out.

:func:`rebalance_hot_edges` is a pure, deterministic function:
candidates are ranked by audited utilization with box-id tiebreaks and
capped at :data:`MAX_ACTIONS` per tick, so one seed reproduces the
exact action sequence.  It drains boxes above :data:`HOT_UTILIZATION`
and returns drained boxes to the planner once they have cooled to
:data:`COLD_UTILIZATION`.

Utilization is offered fan-in rate over a box's *effective*
(degradation-adjusted) processing capacity, so 1.0 is the saturation
point.  The thresholds are the values ``fig_selfheal`` runs, its only
caller.
"""

from __future__ import annotations

from typing import List

from repro.core.optimizer.actions import DRAIN, UNDRAIN, Action, ActionPlan
from repro.core.optimizer.audit import AuditReport

#: Utilization at or above which a box is drained.  It sits well above
#: saturation: plain concentration is what on-path aggregation is *for*
#: (draining a merely-busy box forfeits the uplink byte reduction), so
#: only boxes whose effective rate collapsed under degradation -- where
#: aggregating there is slower than not aggregating at all -- qualify.
HOT_UTILIZATION = 2.0

#: Utilization at or below which a drained box returns to the planner.
COLD_UTILIZATION = 0.5

#: Cap on actions per tick: the loop moves a little every tick rather
#: than everything at once, so a mis-audit cannot thrash the whole
#: deployment.
MAX_ACTIONS = 2

#: Never drain below this many un-drained, non-failed boxes (the
#: applier's guard refuses the drain otherwise).
MIN_ACTIVE = 2


def _headroom(report: AuditReport) -> int:
    """How many boxes may still be taken out of rotation this tick."""
    active = sum(1 for a in report.boxes
                 if not a.drained and a.state != "failed")
    return max(0, active - MIN_ACTIVE)


def rebalance_hot_edges(report: AuditReport) -> ActionPlan:
    """Drain hot boxes; return cooled drained boxes to duty."""
    actions: List[Action] = []
    # Un-drains first: they add capacity before anything is removed,
    # and cost nothing (the box simply rejoins the planner).
    cooled = [
        a for a in report.boxes
        if a.drained and a.state != "failed"
        and a.utilization <= COLD_UTILIZATION
    ]
    cooled.sort(key=lambda a: (a.utilization, a.box_id))
    actions.extend(
        Action(kind=UNDRAIN, target=a.box_id,
               reason=f"cooled util={a.utilization:.2f}")
        for a in cooled[:MAX_ACTIONS]
    )
    hot = [
        a for a in report.boxes
        if not a.drained and a.state != "failed"
        and a.utilization >= HOT_UTILIZATION
    ]
    hot.sort(key=lambda a: (-a.utilization, a.box_id))
    budget = min(MAX_ACTIONS, _headroom(report) + len(actions))
    actions.extend(
        Action(kind=DRAIN, target=a.box_id,
               reason=f"util={a.utilization:.2f}>={HOT_UTILIZATION:g}")
        for a in hot[:budget]
    )
    return ActionPlan(at=report.at, actions=tuple(actions))
