"""Exact max-min fair rate allocation (progressive filling).

Given a set of flows, each traversing a list of capacitated links and
optionally carrying an individual rate cap, the solver raises all rates in
lock-step until a link (or a cap) saturates, freezes the affected flows,
and repeats.  The result is the unique max-min fair allocation -- the
steady state that per-flow-fair TCP converges to, which is what the
paper's packet-level simulator models.

This is the readable from-scratch reference: :class:`FlowSim
<repro.netsim.simulator.FlowSim>` solves with the warm-started
:mod:`repro.netsim.incremental` / :mod:`repro.netsim.vectorized`
backends, and property-based tests cross-check both against it.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

#: Flows at or below this rate-gap are considered frozen at their cap.
_EPS = 1e-12


def max_min_rates_py(
    flow_links: Mapping[str, Sequence[str]],
    capacities: Mapping[str, float],
    rate_caps: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Max-min fair rates for ``flow_links`` over ``capacities``.

    Args:
        flow_links: flow id -> list of link ids it traverses.  A flow with
            an empty path is unconstrained by links (its rate is its cap,
            or ``float('inf')`` with no cap).
        capacities: link id -> capacity in bytes/second.  Every link
            referenced by a flow must be present.
        rate_caps: optional flow id -> maximum rate.

    Returns:
        flow id -> allocated rate (bytes/second).
    """
    caps = dict(rate_caps or {})
    rates: Dict[str, float] = {}
    active: Dict[str, Sequence[str]] = {}
    for flow_id, links in flow_links.items():
        for link in links:
            if link not in capacities:
                raise KeyError(f"flow {flow_id!r} uses unknown link {link!r}")
        rates[flow_id] = 0.0
        if not links and flow_id not in caps:
            rates[flow_id] = float("inf")
        else:
            active[flow_id] = tuple(links)

    remaining = dict(capacities)
    link_users: Dict[str, set] = {}
    for flow_id, links in active.items():
        for link in links:
            link_users.setdefault(link, set()).add(flow_id)

    while active:
        # How much can every active flow's rate still rise in lock-step?
        headrooms = {
            link: remaining[link] / len(users)
            for link, users in link_users.items()
            if users
        }
        gaps = {
            flow_id: caps[flow_id] - rates[flow_id]
            for flow_id in active
            if flow_id in caps
        }
        delta = min(
            min(headrooms.values(), default=float("inf")),
            min(gaps.values(), default=float("inf")),
        )
        tolerance = delta * 1e-9 + _EPS
        bottleneck_links = [
            link for link, headroom in headrooms.items()
            if headroom <= delta + tolerance
        ]
        capped_flows = [
            flow_id for flow_id, gap in gaps.items() if gap <= delta + tolerance
        ]
        if delta == float("inf"):
            # Only capless, linkless flows remain (cannot happen given the
            # construction above) -- guard against infinite loops anyway.
            for flow_id in active:
                rates[flow_id] = float("inf")
            break

        delta = max(delta, 0.0)
        for flow_id in active:
            rates[flow_id] += delta
        for link, users in link_users.items():
            remaining[link] -= delta * len(users)
            if remaining[link] < 0.0:
                remaining[link] = 0.0

        frozen = set(capped_flows)
        for link in bottleneck_links:
            frozen.update(link_users.get(link, ()))
        if not frozen:
            # Numerical corner case: nothing saturated within tolerance.
            # Freeze the flows on the currently tightest link to guarantee
            # progress (cannot recur forever: each round removes flows).
            tightest = min(
                (l for l in link_users if link_users[l]),
                key=lambda l: remaining[l],
                default=None,
            )
            if tightest is None:
                break
            frozen.update(link_users[tightest])
        for flow_id in frozen:
            links = active.pop(flow_id, ())
            for link in links:
                link_users[link].discard(flow_id)
    return rates


#: The public name; ``max_min_rates_py`` is what the solver cross-check
#: tests call the reference.
max_min_rates = max_min_rates_py
