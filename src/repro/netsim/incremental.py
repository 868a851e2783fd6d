"""Incremental max-min fair rate allocation.

:class:`IncrementalMaxMin` maintains the max-min fair allocation of a
*changing* set of flows.  Where :func:`repro.netsim.fairness.max_min_rates`
re-solves the whole instance from scratch, this solver keeps persistent
state between calls -- per-link active-flow sets and the previous
allocation -- and on each :meth:`rates` call re-solves only the part of
the allocation a perturbation can actually reach.  Two exact pruning
arguments make that cheap:

**Component pruning.**  Flows interact only through shared links, so the
max-min allocation of a disjoint union of instances is the union of the
per-component allocations.  Flows not connected (transitively, via
shared links) to any perturbed flow or link keep their cached rates.

**Water-level pruning (warm start).**  Progressive filling freezes every
flow at the water level equal to its final rate.  A perturbation first
touches the event timeline at a computable level ``λ̄``:

- removing a flow changes nothing below its old rate (its links
  saturate at or above that level in both the old and new instance);
- adding a flow ``g`` changes nothing below ``min(cap_l / n_l)`` over
  ``g``'s links (with ``g`` counted in ``n_l``): a link cannot saturate
  before its capacity split evenly among all its users;
- changing a link's capacity from ``C`` to ``C'`` changes nothing below
  ``min(C, C') / n_l``.

Every flow whose cached rate is below the epoch's ``λ̄`` froze in the
unchanged prefix of the filling and keeps its rate *exactly*.  Only the
flows at or above ``λ̄`` (plus arrivals) re-solve, against residual link
capacities (full capacity minus the below-threshold flows' frozen
consumption).  The below-threshold sums are computed with
:func:`math.fsum`, so results do not depend on set-iteration order.

Within the re-solve region the allocation is recomputed with a
bottleneck-freezing kernel that is algebraically the same progressive
filling the batch solvers implement, but organised around a lazy heap
of link-saturation water levels instead of lock-step rounds: link ``l``
with ``u`` unfrozen users and ``r`` remaining capacity saturates at
level ``level + r / u``; the next event is the smallest such level (or
the smallest unreached rate cap); freezing a flow lazily charges only
the links it traverses.  Links are integer-indexed with
generation-stamped scratch arrays, so a solve allocates only in
proportion to the region it touches.

The result is the same unique max-min allocation the exact solvers
compute; property tests in ``tests/test_incremental.py`` cross-check
long add/remove/set-capacity histories against
:func:`repro.netsim.fairness.max_min_rates_py` to within 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import fsum
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

_INF = float("inf")

#: Relative slack applied to the water-level threshold: flows within one
#: part in 1e9 of the boundary are re-solved rather than reused, so
#: floating-point drift in cached rates can never strand a flow on the
#: wrong side of the cut.
_THRESHOLD_SLACK = 1.0 - 1e-9


@dataclass
class SolverStats:
    """Work counters for one :class:`IncrementalMaxMin` instance."""

    solves: int = 0             #: rates() calls that found dirty state
    cache_hits: int = 0         #: rates() calls answered from cache alone
    components_resolved: int = 0  #: re-solve regions filled
    flows_resolved: int = 0     #: flow-rate recomputations, summed
    flows_reused: int = 0       #: cached rates carried across a solve

    def merge_into(self, other: "SolverStats") -> None:
        other.solves += self.solves
        other.cache_hits += self.cache_hits
        other.components_resolved += self.components_resolved
        other.flows_resolved += self.flows_resolved
        other.flows_reused += self.flows_reused


def _check_rate_cap(flow_id: str, rate_cap: Optional[float]) -> None:
    """Both warm solvers' ``rate_cap`` check: a negative cap would come
    back as a negative rate and a NaN one never freezes (``>= 0`` is
    false for both)."""
    if rate_cap is not None and not rate_cap >= 0:
        raise ValueError(f"flow {flow_id!r} rate cap must be >= 0")


class _Flow:
    """Internal per-flow record (identity-hashed, generation-stamped)."""

    __slots__ = ("fid", "links", "cap", "seen", "frozen")

    def __init__(self, fid: str, links: Tuple[int, ...],
                 cap: Optional[float]) -> None:
        self.fid = fid
        self.links = links      #: distinct link indices traversed
        self.cap = cap
        self.seen = 0           #: region-BFS generation stamp
        self.frozen = 0         #: fill generation stamp


class IncrementalMaxMin:
    """Max-min fair rates over a mutable flow set, solved incrementally.

    Usage::

        solver = IncrementalMaxMin(network.capacities())
        solver.add_flow("f1", ("l1", "l2"))
        solver.add_flow("f2", ("l2",), rate_cap=3.0)
        rates = solver.rates()          # solves
        solver.remove_flow("f1")
        rates = solver.rates()          # re-solves only what f1 touched

    :meth:`rates` returns the solver's live rate mapping -- treat it as
    read-only; it is updated in place by later calls.
    """

    def __init__(self, capacities: Mapping[str, float]) -> None:
        self._link_index: Dict[str, int] = {}
        self._cap_arr: List[float] = []
        for link_id, cap in capacities.items():
            if cap < 0:
                raise ValueError(f"link {link_id!r} capacity must be >= 0")
            self._link_index[link_id] = len(self._cap_arr)
            self._cap_arr.append(cap)
        n = len(self._cap_arr)
        #: Per-link scratch state for the fill kernel, generation-stamped
        #: so a solve resets only the links it actually touches.
        self._lgen = [0] * n
        self._lrem = [0.0] * n      # residual capacity at water level _lmark
        self._lmark = [0.0] * n     # level of the link's last lazy update
        self._lver = [0] * n        # bumped when users/remaining change
        self._lrising = [0] * n     # unfrozen re-solved users
        self._users: List[Set[_Flow]] = [set() for _ in range(n)]
        self._gen = 0

        self._flows: Dict[str, _Flow] = {}
        self._rates: Dict[str, float] = {}
        self._dirty_flows: Set[_Flow] = set()
        self._dirty_links: Set[int] = set()
        #: Lowest water level any pending perturbation can reach.
        self._bound = _INF
        self.stats = SolverStats()

    # -- mutation ----------------------------------------------------------

    def __contains__(self, flow_id: str) -> bool:
        return flow_id in self._flows

    def __len__(self) -> int:
        return len(self._flows)

    def add_flow(self, flow_id: str, links: Sequence[str],
                 rate_cap: Optional[float] = None) -> None:
        """Add a flow traversing ``links`` (set semantics, like the batch
        solvers: a repeated link is charged once)."""
        if flow_id in self._flows:
            raise ValueError(f"duplicate flow id {flow_id!r}")
        _check_rate_cap(flow_id, rate_cap)
        index = self._link_index
        try:
            link_ids = tuple({index[l]: None for l in links})
        except KeyError as exc:
            raise KeyError(
                f"flow {flow_id!r} uses unknown link {exc.args[0]!r}"
            ) from None
        flow = _Flow(flow_id, link_ids, rate_cap)
        self._flows[flow_id] = flow
        users = self._users
        cap_arr = self._cap_arr
        bound = self._bound
        for li in link_ids:
            users[li].add(flow)
            # No link saturates below an even split among all its users.
            first_touch = cap_arr[li] / len(users[li])
            if first_touch < bound:
                bound = first_touch
        self._bound = bound
        self._dirty_flows.add(flow)

    def remove_flow(self, flow_id: str) -> None:
        """Remove a flow; nothing below its old rate is disturbed."""
        flow = self._flows.pop(flow_id)
        users = self._users
        if flow in self._dirty_flows and flow.fid not in self._rates:
            # Un-add: the flow was added since the last solve and never
            # received a rate, so no other flow's allocation can depend
            # on it yet.  Cancel the pending add outright instead of
            # dirtying its links; with no other pending perturbation the
            # next rates() call is a cache hit.
            self._dirty_flows.discard(flow)
            for li in flow.links:
                users[li].discard(flow)
            if not self._dirty_flows and not self._dirty_links:
                self._bound = _INF
            return
        dirty_links = self._dirty_links
        for li in flow.links:
            users[li].discard(flow)
            dirty_links.add(li)
        old_rate = self._rates.pop(flow_id, _INF)
        if old_rate < self._bound:
            self._bound = old_rate
        self._dirty_flows.discard(flow)

    def reroute(self, flow_id: str, links: Sequence[str],
                rate_cap: Optional[float] = None) -> None:
        """Move a flow onto a new path.

        Shared links are deduped: only links the flow actually leaves go
        onto the dirty-link list (the flow itself seeds the region BFS,
        which covers its new links), and a reroute onto the identical
        link set with an unchanged rate cap is a pure no-op -- §3.1
        rewiring storms that re-issue a flow's current path no longer
        trigger region re-solves.  The water-level bound matches the old
        remove+add pair exactly: nothing below the flow's old rate is
        disturbed on departed links, nothing below a link's even split
        among its users is disturbed on the new path.
        """
        flow = self._flows.get(flow_id)
        if flow is None:
            raise KeyError(flow_id)
        _check_rate_cap(flow_id, rate_cap)
        index = self._link_index
        try:
            new_links = tuple({index[l]: None for l in links})
        except KeyError as exc:
            raise KeyError(
                f"flow {flow_id!r} uses unknown link {exc.args[0]!r}"
            ) from None
        if new_links == flow.links and rate_cap == flow.cap:
            return
        users = self._users
        cap_arr = self._cap_arr
        old_set = set(flow.links)
        new_set = set(new_links)
        for li in flow.links:
            if li not in new_set:
                users[li].discard(flow)
                self._dirty_links.add(li)
        bound = self._bound
        for li in new_links:
            link_users = users[li]
            if li not in old_set:
                link_users.add(flow)
            first_touch = cap_arr[li] / len(link_users)
            if first_touch < bound:
                bound = first_touch
        # Keep the stale rate entry: the flow seeds the next region
        # re-solve, which overwrites it.  Popping it would make a later
        # remove_flow() mistake this flow for a never-solved fresh add
        # (``fid not in self._rates``) and cancel it without releasing
        # its links' capacity.
        old_rate = self._rates.get(flow_id, _INF)
        if old_rate < bound:
            bound = old_rate
        self._bound = bound
        flow.links = new_links
        flow.cap = rate_cap
        self._dirty_flows.add(flow)

    def set_capacity(self, link_id: str, capacity: float) -> None:
        """Change a link's capacity (0 = down: its flows get rate 0)."""
        if capacity < 0:
            raise ValueError(f"link {link_id!r} capacity must be >= 0")
        li = self._link_index.get(link_id)
        if li is None:
            raise KeyError(f"unknown link {link_id!r}")
        old = self._cap_arr[li]
        if old == capacity:
            return
        self._cap_arr[li] = capacity
        users = self._users[li]
        if users:
            self._dirty_links.add(li)
            first_touch = min(old, capacity) / len(users)
            if first_touch < self._bound:
                self._bound = first_touch

    # -- solving -----------------------------------------------------------

    def rates(self) -> Mapping[str, float]:
        """The max-min allocation for the current flow set.

        Re-solves only the perturbed region; returns the live internal
        mapping (do not mutate).
        """
        if not self._dirty_flows and not self._dirty_links:
            self.stats.cache_hits += 1
            return self._rates
        self.stats.solves += 1
        rates = self._rates
        users = self._users
        cap_arr = self._cap_arr
        lgen, lrem, lmark = self._lgen, self._lrem, self._lmark
        lver, lrising = self._lver, self._lrising
        threshold = self._bound * _THRESHOLD_SLACK
        self._gen += 1
        gen = self._gen

        region: List[_Flow] = []
        stack: List[_Flow] = []
        touched: List[int] = []

        flows_dict = self._flows
        for flow in self._dirty_flows:
            # A flow added and removed within the same dirty window is
            # gone from the registry; skip its stale object.
            if flows_dict.get(flow.fid) is flow and flow.seen != gen:
                flow.seen = gen
                region.append(flow)
                stack.append(flow)

        def process_link(li: int) -> None:
            """First touch of a link: split its users into re-solve
            region (rate >= threshold, pulled into the BFS) and frozen
            environment (their consumption becomes a capacity debit)."""
            lgen[li] = gen
            touched.append(li)
            n_rising = 0
            env: List[float] = []
            for u in users[li]:
                if u.seen == gen:
                    n_rising += 1
                else:
                    r = rates.get(u.fid, 0.0)
                    if r >= threshold:
                        u.seen = gen
                        region.append(u)
                        stack.append(u)
                        n_rising += 1
                    else:
                        env.append(r)
            residual = cap_arr[li] - fsum(env) if env else cap_arr[li]
            lrem[li] = residual if residual > 0.0 else 0.0
            lmark[li] = 0.0
            lver[li] = 1
            lrising[li] = n_rising

        for li in self._dirty_links:
            if lgen[li] != gen:
                process_link(li)
        while stack:
            flow = stack.pop()
            for li in flow.links:
                if lgen[li] != gen:
                    process_link(li)

        self._dirty_links.clear()
        self._dirty_flows = set()
        self._bound = _INF
        if region:
            self._fill(region, touched, gen)
            self.stats.components_resolved += 1
            self.stats.flows_resolved += len(region)
            self.stats.flows_reused += len(flows_dict) - len(region)
        return rates

    def rate(self, flow_id: str) -> float:
        return self.rates()[flow_id]

    # -- internals ---------------------------------------------------------

    def _fill(self, region: Sequence[_Flow], touched: Sequence[int],
              gen: int) -> None:
        """Bottleneck-freezing progressive fill of one re-solve region.

        ``touched`` links were initialised by ``process_link`` with
        residual capacities and rising-user counts; the region is closed
        under link sharing above the threshold, so every above-threshold
        user of every touched link is in the region.
        """
        rates = self._rates
        lrem, lmark = self._lrem, self._lmark
        lver, lrising = self._lver, self._lrising
        users = self._users

        cap_heap: List[Tuple[float, str, _Flow]] = []
        n_active = 0
        for flow in region:
            if not flow.links and flow.cap is None:
                rates[flow.fid] = _INF
                continue
            n_active += 1
            if flow.cap is not None:
                cap_heap.append((flow.cap, flow.fid, flow))
        link_heap: List[Tuple[float, int, int]] = [
            (lrem[li] / lrising[li], 1, li)
            for li in touched if lrising[li]
        ]
        heapify(link_heap)
        heapify(cap_heap)

        level = 0.0

        def freeze(flow: _Flow, rate: float, at: float) -> None:
            nonlocal n_active
            rates[flow.fid] = rate
            flow.frozen = gen
            n_active -= 1
            for li in flow.links:
                # Charge the rise since the link's last update, with the
                # user count *including* the flow being frozen.
                n = lrising[li]
                left = lrem[li] - (at - lmark[li]) * n
                lrem[li] = left if left > 0.0 else 0.0
                lmark[li] = at
                lrising[li] = n - 1
                lver[li] += 1

        while n_active:
            while cap_heap and cap_heap[0][2].frozen == gen:
                heappop(cap_heap)
            cap_level = cap_heap[0][0] if cap_heap else _INF
            # Lazily repair the link heap: a stale top entry is replaced
            # by the link's current saturation level (which only ever
            # rises as users freeze, so stale entries are lower bounds
            # and the heap order stays correct).
            while link_heap:
                sat_level, ver, li = link_heap[0]
                if lver[li] == ver:
                    break
                heappop(link_heap)
                n = lrising[li]
                if n:
                    left = lrem[li]
                    if left < 0.0:
                        left = 0.0
                    heappush(link_heap, (lmark[li] + left / n, lver[li], li))
            link_level = link_heap[0][0] if link_heap else _INF
            if cap_level == _INF and link_level == _INF:
                # Unconstrained flows (no links, no cap) -- cannot happen
                # given the admission above, but guard against looping.
                for flow in region:  # pragma: no cover - defensive
                    if flow.frozen != gen and rates.get(flow.fid) != _INF:
                        rates[flow.fid] = _INF
                break
            if cap_level <= link_level:
                cap, _, flow = heappop(cap_heap)
                if level < cap:
                    level = cap
                freeze(flow, cap, level)
            else:
                sat_level, _, li = heappop(link_heap)
                if level < sat_level:
                    level = sat_level
                for flow in users[li]:
                    if flow.frozen != gen and flow.seen == gen:
                        freeze(flow, level, level)
