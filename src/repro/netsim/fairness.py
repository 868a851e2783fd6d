"""Exact max-min fair rate allocation (progressive filling).

Given a set of flows, each traversing a list of capacitated links, the
solver raises all rates in lock-step until a link saturates, freezes the
flows on it, and repeats.  The result is the unique max-min fair
allocation -- the steady state that per-flow-fair TCP converges to,
which is what the paper's packet-level simulator models.

This is the readable from-scratch reference: :class:`FlowSim
<repro.netsim.simulator.FlowSim>` solves with the warm-started
:mod:`repro.netsim.incremental` / :mod:`repro.netsim.vectorized`
backends, and property-based tests cross-check both against it.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

#: Links within this absolute headroom of the round's bottleneck
#: saturate with it.
_EPS = 1e-12


def max_min_rates_py(
    flow_links: Mapping[str, Sequence[str]],
    capacities: Mapping[str, float],
) -> Dict[str, float]:
    """Max-min fair rates for ``flow_links`` over ``capacities``.

    Args:
        flow_links: flow id -> list of link ids it traverses.  A flow with
            an empty path is unconstrained (its rate is ``float('inf')``).
        capacities: link id -> capacity in bytes/second.  Every link
            referenced by a flow must be present.

    Returns:
        flow id -> allocated rate (bytes/second).
    """
    rates: Dict[str, float] = {}
    active: Dict[str, Sequence[str]] = {}
    for flow_id, links in flow_links.items():
        for link in links:
            if link not in capacities:
                raise KeyError(f"flow {flow_id!r} uses unknown link {link!r}")
        if links:
            rates[flow_id] = 0.0
            active[flow_id] = tuple(links)
        else:
            rates[flow_id] = float("inf")

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
        delta = min(headrooms.values(), default=float("inf"))
        tolerance = delta * 1e-9 + _EPS
        bottleneck_links = [
            link for link, headroom in headrooms.items()
            if headroom <= delta + tolerance
        ]
        if delta == float("inf"):
            # Only flows on infinite-capacity links remain.
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

        frozen = set()
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
