"""``repro.core.optimizer`` -- the self-healing control loop.

A deterministic loop that drains boxes whose effective capacity
collapsed and returns them once they cool, in the spirit of
utilization-aware placement of scarce aggregation resources (SOAR,
arXiv 2110.14224).  The caller keeps the drained set, and the set feeds
the §3.1 rewiring (:func:`repro.core.failure.rewire_out`) of every tree
built afterwards:

- :func:`rebalance_hot_edges` is the one strategy, a pure function
  from per-box utilization and the drained set to ``(kind, box,
  reason)`` actions;
- :func:`tick` applies those actions to the caller's drained set on the
  caller's virtual clock.  It never sleeps or schedules itself: the
  caller decides the cadence (``fig_selfheal`` ticks per job arrival).

Utilization is offered fan-in rate over a box's *effective*
(degradation-adjusted) processing capacity, so 1.0 is the saturation
point.  The boxes a tick considers are the keys of the caller's
utilization dict.  A box the caller leaves out (a dead one, say) is
never drained or undrained and does not count as active.

Nothing is moved off a drained box: the loop runs between requests,
and a platform's boxes hold nothing between requests (a request's state
ends with the call that runs it).  A box that dies while a request is
in flight is :meth:`repro.core.recovery.InFlightRequest.fail_box`,
called by whoever holds the request.

Every tick is traced (an ``optimizer.audit`` and an ``optimizer.apply``
span, an ``optimizer.action`` instant per action tagged with its kind,
target and reason, and an ``optimizer.drain`` / ``optimizer.undrain``
instant per applied one) and counted (``optimizer.ticks`` / ``.audits``
/ ``.actions`` / ``.drains`` / ``.undrains``), so ``python -m repro
analyze`` attributes every action to its tick.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.obs import METRICS, get_tracer

DRAIN = "drain"
UNDRAIN = "undrain"

#: Utilization at or above which a box is drained.  It sits well above
#: saturation: plain concentration is what on-path aggregation is *for*
#: (draining a merely-busy box forfeits the uplink byte reduction), so
#: only boxes whose effective rate collapsed under degradation -- where
#: aggregating there is slower than not aggregating at all -- qualify.
HOT_UTILIZATION = 2.0

#: Utilization at or below which a drained box returns to the planner.
COLD_UTILIZATION = 0.5

#: Cap on undrains, and on drains, per tick: the loop moves a little
#: every tick rather than everything at once, so a mis-audit cannot
#: thrash the whole deployment.
MAX_ACTIONS = 2

#: Never drain below this many active (reported, un-drained) boxes.
MIN_ACTIVE = 2


def rebalance_hot_edges(utilization: Dict[str, float],
                        drained: Set[str]) -> List[Tuple[str, str, str]]:
    """Return cooled drained boxes to duty, then drain the hottest.

    Undrains come first, coolest first: they add capacity before
    anything is removed, and cost nothing (the box simply rejoins the
    planner).  Drains go hottest first.  Ties break on box id, so one
    seed reproduces the exact action sequence.  The drains' budget
    counts the undrains, so a tick never leaves fewer than
    :data:`MIN_ACTIVE` active boxes when it started with that many.
    """
    cooled = sorted((b for b, u in utilization.items()
                     if b in drained and u <= COLD_UTILIZATION),
                    key=lambda b: (utilization[b], b))[:MAX_ACTIONS]
    hot = sorted((b for b, u in utilization.items()
                  if b not in drained and u >= HOT_UTILIZATION),
                 key=lambda b: (-utilization[b], b))
    active = sum(1 for b in utilization if b not in drained)
    budget = min(MAX_ACTIONS,
                 max(0, active + len(cooled) - MIN_ACTIVE))
    return ([(UNDRAIN, b, f"cooled util={utilization[b]:.2f}")
             for b in cooled]
            + [(DRAIN, b,
                f"util={utilization[b]:.2f}>={HOT_UTILIZATION:g}")
               for b in hot[:budget]])


def tick(at: float, utilization: Dict[str, float],
         drained: Set[str]) -> List[Tuple[str, str, str]]:
    """One cycle at virtual time ``at``: plan with
    :func:`rebalance_hot_edges`, apply the actions to ``drained`` in
    place, and return them."""
    tracer = get_tracer()
    span = tracer.begin("optimizer.audit", at, layer="optimizer") \
        if tracer.enabled else 0
    try:
        actions = rebalance_hot_edges(utilization, drained)
    finally:
        if span:
            tracer.end(span, at)
    span = tracer.begin("optimizer.apply", at, layer="optimizer",
                        actions=len(actions)) if tracer.enabled else 0
    try:
        for kind, box, reason in actions:
            if kind == DRAIN:
                drained.add(box)
            else:
                drained.discard(box)
            if tracer.enabled:
                tracer.instant("optimizer.action", at, layer="optimizer",
                               kind=kind, target=box, reason=reason)
                tracer.instant(f"optimizer.{kind}", at, layer="optimizer",
                               box=box)
    finally:
        if span:
            tracer.end(span, at)
    drains = sum(1 for kind, _, _ in actions if kind == DRAIN)
    METRICS.counter("optimizer.audits").inc()
    METRICS.counter("optimizer.actions").inc(len(actions))
    METRICS.counter("optimizer.drains").inc(drains)
    METRICS.counter("optimizer.undrains").inc(len(actions) - drains)
    METRICS.counter("optimizer.ticks").inc()
    return actions
