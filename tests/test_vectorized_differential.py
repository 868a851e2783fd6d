"""Differential oracle for the vectorized max-min solver.

``_FrozenVectorizedMaxMin`` is a verbatim copy of
``repro.netsim.vectorized.VectorizedMaxMin`` as it stood before the
region build and the fill learnt to skip work whose outcome is already
known.  Hypothesis drives the frozen solver and the live one with the
same script of ``add_flow`` (repeated links, empty paths),
``remove_flow`` (including the un-add of a flow added since the
last solve) and ``set_capacity`` (cuts to 0, restores) calls, consulting
``rates_array()`` between random batches.  After every consult the two
must agree bit for bit: the same rate bytes, the same per-link water
levels and the same ``SolverStats`` -- the pruning is allowed to change
what the solver scans, never what it resolves.  Deterministic replays
push a QUICK-scale NetAgg simulation's solver calls (with and without
link flaps) and a 1,500-flow history through both solvers.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import NetAggStrategy, deploy_boxes
from repro.experiments.common import QUICK, simulate
from repro.experiments.fig_failures import _make_schedule
from repro.netsim import simulator
from repro.netsim.incremental import SolverStats, _THRESHOLD_SLACK
from repro.netsim.vectorized import HAVE_NUMPY
from tests.test_vectorized import large_region_history

if HAVE_NUMPY:
    import numpy as _np

    from repro.netsim.vectorized import VectorizedMaxMin

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy backend unavailable")

_INF = float("inf")
_COMPACT_MIN_DEAD = 256


def _check_rate_cap(flow_id: str, rate_cap: Optional[float]) -> None:
    """Both warm solvers' ``rate_cap`` check: a negative cap would come
    back as a negative rate and a NaN one never freezes (``>= 0`` is
    false for both)."""
    if rate_cap is not None and not rate_cap >= 0:
        raise ValueError(f"flow {flow_id!r} rate cap must be >= 0")


class _FrozenVectorizedMaxMin:
    """``VectorizedMaxMin`` before the pruning rules, verbatim."""

    def __init__(self, capacities: Mapping[str, float]) -> None:
        if _np is None:
            raise RuntimeError(
                "VectorizedMaxMin requires numpy (pip install .[fast]); "
                "use solver='incremental' or 'auto' for the pure-Python "
                "fallback")
        self._link_index: Dict[str, int] = {}
        caps: List[float] = []
        for link_id, cap in capacities.items():
            if cap < 0:
                raise ValueError(f"link {link_id!r} capacity must be >= 0")
            self._link_index[link_id] = len(caps)
            caps.append(cap)
        nlinks = len(caps)
        self._nlinks = nlinks
        self._cap_list: List[float] = caps
        #: Per-link allocated-rate sum as of the last solve (removals
        #: since are subtracted; fresh flows are not yet included).
        self._lalloc = _np.zeros(nlinks, dtype=_np.float64)
        #: Per-link saturation water level from the last solve; +inf
        #: for links that bottleneck no flow.  A link's level rise can
        #: only lift flows frozen exactly at this level.
        self._llevel: List[float] = [_INF] * nlinks
        #: Per-link live user slots (the region BFS scans these).
        self._lflows: List[set] = [set() for _ in range(nlinks)]
        #: Links perturbed since the last solve (removals leaving the
        #: link, capacity changes) -- the region BFS seeds.
        self._seeds: set = set()
        #: Seeds whose *capacity* changed (the only k==0 visits whose
        #: level can drop rather than rise; see :meth:`_build_region`).
        self._cap_seeds: set = set()
        #: Persistent per-link fill scratch (re-initialised for each
        #: solve's touched links; list indexing beats per-solve dicts).
        self._f_rem: List[float] = [0.0] * nlinks
        self._f_mark: List[float] = [0.0] * nlinks
        self._f_ver: List[int] = [0] * nlinks
        self._f_rising: List[int] = [0] * nlinks

        # Slot 0 is the reserved sink for dead edges: inactive, rate 0.
        n0 = 16
        self._nslots = 1
        self._rate = _np.zeros(n0, dtype=_np.float64)
        #: Python mirror of ``_rate`` (scalar reads during region BFS).
        self._rlist: List[float] = [0.0] * n0
        #: Per-slot rate cap (+inf = uncapped).
        self._fcap: List[float] = [_INF] * n0
        self._estart = _np.zeros(n0, dtype=_np.int64)
        self._eend = _np.zeros(n0, dtype=_np.int64)

        e0 = 64
        self._nedges = 0
        self._dead_edges = 0
        self._eflow = _np.zeros(e0, dtype=_np.int64)
        self._elink = _np.zeros(e0, dtype=_np.int64)

        #: Per-slot link-index tuples (the Python-side view of the CSR
        #: ranges); the fill kernel walks these instead of slicing
        #: the edge arrays.
        self._slinks: List[Tuple[int, ...]] = [()]

        self._flows: Dict[str, int] = {}
        #: Slots added since the last solve (never assigned a rate); a
        #: remove of a fresh slot cancels the pending add outright.
        self._fresh: set = set()
        #: Count of non-cancellable pending perturbations.
        self._ndirty = 0
        self._rates_dict: Optional[Dict[str, float]] = None
        self.stats = SolverStats()

    # -- mutation ----------------------------------------------------------

    def __contains__(self, flow_id: str) -> bool:
        return flow_id in self._flows

    def __len__(self) -> int:
        return len(self._flows)

    def _grow_slots(self, need: int) -> None:
        n = len(self._rate)
        if need <= n:
            return
        new = max(need, 2 * n)
        for name in ("_rate", "_estart", "_eend"):
            old = getattr(self, name)
            arr = _np.zeros(new, dtype=old.dtype)
            arr[:n] = old
            setattr(self, name, arr)
        self._rlist.extend([0.0] * (new - n))
        self._fcap.extend([_INF] * (new - n))

    def _grow_edges(self, need: int) -> None:
        n = len(self._eflow)
        if need <= n:
            return
        new = max(need, 2 * n)
        for name in ("_eflow", "_elink"):
            old = getattr(self, name)
            arr = _np.zeros(new, dtype=old.dtype)
            arr[:n] = old
            setattr(self, name, arr)

    def add_flow(self, flow_id: str, links: Sequence[str],
                 rate_cap: Optional[float] = None) -> int:
        """Add a flow traversing ``links`` (set semantics); returns the
        flow's slot index for array-side bookkeeping."""
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
        slot = self._nslots
        self._grow_slots(slot + 1)
        self._nslots = slot + 1
        # +inf is the fresh sentinel: the flow is always part of the
        # next solve's re-solve region.
        self._rate[slot] = _INF
        self._rlist[slot] = _INF
        self._fcap[slot] = rate_cap if rate_cap is not None else _INF
        ne = len(link_ids)
        e0 = self._nedges
        self._grow_edges(e0 + ne)
        self._estart[slot] = e0
        self._eend[slot] = e0 + ne
        if ne:
            lflows = self._lflows
            for li in link_ids:
                lflows[li].add(slot)
            self._eflow[e0:e0 + ne] = slot
            self._elink[e0:e0 + ne] = _np.asarray(link_ids,
                                                  dtype=_np.int64)
        self._nedges = e0 + ne
        self._slinks.append(link_ids)
        self._flows[flow_id] = slot
        self._fresh.add(slot)
        self._rates_dict = None
        return slot

    def remove_flow(self, flow_id: str) -> None:
        """Remove a flow; nothing below its old rate is disturbed.  An
        un-add (remove of a flow added since the last solve) cancels
        cleanly: with no other pending perturbation the next
        :meth:`rates` call is a cache hit."""
        slot = self._flows.pop(flow_id)
        s = int(self._estart[slot])
        e = int(self._eend[slot])
        fresh = slot in self._fresh
        links = self._slinks[slot]
        lflows = self._lflows
        for li in links:
            lflows[li].discard(slot)
        if e > s:
            if not fresh:
                # The departed rate leaves the allocation sums at once;
                # the links become region seeds (their levels can rise).
                self._lalloc[self._elink[s:e]] -= self._rate[slot]
            self._eflow[s:e] = 0
            self._dead_edges += e - s
        self._slinks[slot] = ()
        self._rate[slot] = 0.0
        self._rlist[slot] = 0.0
        if fresh:
            self._fresh.discard(slot)
        else:
            self._seeds.update(links)
            self._ndirty += 1
            self._rates_dict = None
        if self._dead_edges > _COMPACT_MIN_DEAD \
                and self._dead_edges > self._nedges - self._dead_edges:
            self._compact_edges()

    def set_capacity(self, link_id: str, capacity: float) -> None:
        """Change a link's capacity (0 = down); same-value is a no-op."""
        if capacity < 0:
            raise ValueError(f"link {link_id!r} capacity must be >= 0")
        li = self._link_index.get(link_id)
        if li is None:
            raise KeyError(f"unknown link {link_id!r}")
        if self._cap_list[li] == capacity:
            return
        self._cap_list[li] = capacity
        if self._lflows[li]:
            self._seeds.add(li)
            self._cap_seeds.add(li)
            self._ndirty += 1
            self._rates_dict = None

    def _compact_edges(self) -> None:
        """Drop dead (sink-pointed) edges, preserving slot ranges."""
        E = self._nedges
        mask = self._eflow[:E] != 0
        prefix = _np.zeros(E + 1, dtype=_np.int64)
        _np.cumsum(mask, out=prefix[1:])
        live = int(prefix[E])
        # Boolean fancy indexing copies, so in-place front-packing is safe.
        self._eflow[:live] = self._eflow[:E][mask]
        self._elink[:live] = self._elink[:E][mask]
        S = self._nslots
        self._estart[:S] = prefix[self._estart[:S]]
        self._eend[:S] = prefix[self._eend[:S]]
        self._nedges = live
        self._dead_edges = 0

    # -- solving -----------------------------------------------------------

    def rates(self) -> Mapping[str, float]:
        """The max-min allocation for the current flow set (a dict; do
        not mutate -- it is rebuilt after each solve)."""
        self._solve()
        memo = self._rates_dict
        if memo is None:
            rate = self._rate
            memo = {fid: float(rate[slot])
                    for fid, slot in self._flows.items()}
            self._rates_dict = memo
        return memo

    def rate(self, flow_id: str) -> float:
        return self.rates()[flow_id]

    def rates_array(self):
        """Solve if needed and return the per-slot rate vector (numpy
        float64, indexed by the slots :meth:`add_flow` returned; slots
        of removed flows read 0).  Treat as read-only."""
        self._solve()
        return self._rate

    @property
    def nslots(self) -> int:
        """Allocated slot count (every live slot index is below it)."""
        return self._nslots

    # -- internals ---------------------------------------------------------

    def _solve(self) -> None:
        if not self._fresh and not self._ndirty:
            self.stats.cache_hits += 1
            return
        self.stats.solves += 1
        slots, lflows, contrib = self._build_region()
        region = len(slots)
        if not region:
            # The perturbations provably changed no allocation (e.g. a
            # flow left a link that bottlenecks nobody).
            self._finish_solve(0)
            return

        slinks = self._slinks
        fcap = self._fcap
        rlist = self._rlist
        linked: List[int] = []
        for s in slots:
            if slinks[s]:
                linked.append(s)
            else:
                # Flows with no links freeze immediately at cap (or
                # +inf); only fresh flows can reach the region linkless.
                self._rate[s] = rlist[s] = fcap[s]
        if linked:
            self._fill(linked, lflows, contrib)
        self._finish_solve(region)

    def _build_region(
        self,
    ) -> Tuple[List[int], Dict[int, List[int]], Dict[int, float]]:
        """Slots whose rates the pending perturbations can change.

        A worklist closure with sound per-link admission floors.  A
        link's allocation changes either because its level *rises*
        (capacity freed: only flows frozen exactly at its recorded
        water level ``_llevel`` can lift) or because it *drops* (new
        pressure: in the new solution every user of a saturated link
        sits at or below its level, and with the non-region users
        provably frozen the link cannot saturate below the single-link
        water-fill level ``_sat_level`` computed with the admitted
        region users as unleashed risers).  ``min`` of the two floors
        is therefore sound in both directions; admitting a user can
        only lower a link's drop-floor, so links re-enter the worklist
        until the region reaches a fixpoint.  Flows strictly below a
        link's floor keep their rates exactly -- the same warm-start
        argument as the incremental solver's global threshold, applied
        per link, which keeps regions near the true disturbance size.

        Returns ``(slots, region_users, contrib)``: the sorted region,
        plus -- built here as flows are admitted, so the fill kernel
        needs no second pass -- the region's users per touched link and
        each touched link's sum of region old (finite) rates.
        """
        rlist = self._rlist
        llevel = self._llevel
        lflows = self._lflows
        slinks = self._slinks
        cap_list = self._cap_list
        cap_seeds = self._cap_seeds
        region = set(self._fresh)
        #: Region users per link / their old-rate sums (fresh flows
        #: have no old rate and contribute nothing).
        adm: Dict[int, List[int]] = {}
        contrib: Dict[int, float] = {}
        queue: List[int] = []
        inq = set()
        for s in self._fresh:
            for li in slinks[s]:
                a = adm.get(li)
                if a is None:
                    adm[li] = [s]
                    contrib[li] = 0.0
                    inq.add(li)
                    queue.append(li)
                else:
                    a.append(s)
        for li in self._seeds:
            if li not in inq:
                inq.add(li)
                queue.append(li)
        #: Candidate memo: users of a visited link not yet in the
        #: region.  Flows only ever move candidate -> region, so a
        #: re-visit rescan of the previous candidates is complete --
        #: heavily-shared links are scanned in full only once.
        part: Dict[int, List[int]] = {}
        qi = 0
        while qi < len(queue):
            li = queue[qi]
            qi += 1
            inq.discard(li)
            prev = part.get(li)
            if prev is None:
                prev = lflows[li]
            cand = [s for s in prev if s not in region]
            part[li] = cand
            if not cand:
                continue
            k = len(lflows[li]) - len(cand)
            floor = llevel[li] * _THRESHOLD_SLACK
            if k or li in cap_seeds:
                # The link's pressure may have grown (admitted risers,
                # a capacity cut), so its level can also *drop* -- but
                # never below the even split ``cap / (k + n)``.  Only
                # candidates between that bound and the recorded level
                # depend on the exact water-fill level; skip it when
                # none are.  A ``k == 0`` visit of a non-capacity seed
                # has strictly *lost* load, so its level cannot drop at
                # all and the recorded-level floor alone is sound.
                lb = cap_list[li] / (k + len(cand)) * _THRESHOLD_SLACK
                if lb < floor:
                    for s in cand:
                        if lb <= rlist[s] < floor:
                            sat = self._sat_level(li, cand, k) \
                                * _THRESHOLD_SLACK
                            if sat < floor:
                                floor = sat
                            break
            for s in cand:
                r = rlist[s]
                if r >= floor:
                    region.add(s)
                    back = r if r != _INF else 0.0
                    for m in slinks[s]:
                        a = adm.get(m)
                        if a is None:
                            adm[m] = [s]
                            contrib[m] = back
                        else:
                            a.append(s)
                            contrib[m] += back
                        if m not in inq:
                            inq.add(m)
                            queue.append(m)
        return sorted(region), adm, contrib

    def _sat_level(self, li: int, env_slots: List[int], k: int) -> float:
        """Lowest level link ``li`` can saturate at, given ``k`` region
        users rising in lockstep and ``env_slots`` frozen at their
        current rates (single-link water-fill; +inf when it cannot
        saturate)."""
        cap = self._cap_list[li]
        rlist = self._rlist
        env = sorted(rlist[s] for s in env_slots)
        pre = 0.0
        n = len(env)
        for j, r in enumerate(env):
            lam = (cap - pre) / (k + n - j)
            if lam <= r:
                return lam if lam > 0.0 else 0.0
            pre += r
        if k == 0:
            return _INF
        lam = (cap - pre) / k
        return lam if lam > 0.0 else 0.0

    def _finish_solve(self, region: int) -> None:
        self._fresh.clear()
        self._seeds.clear()
        self._cap_seeds.clear()
        self._ndirty = 0
        # Refresh the per-link allocated-rate sums from the solved rates
        # (dead edges point at the zero-rate sink, contributing nothing).
        E = self._nedges
        self._lalloc = _np.bincount(
            self._elink[:E], weights=self._rate[self._eflow[:E]],
            minlength=self._nlinks)
        self._rates_dict = None
        if region:
            self.stats.components_resolved += 1
            self.stats.flows_resolved += region
            self.stats.flows_reused += len(self._flows) - region

    def _fill(self, slots: List[int],
              lflows: Dict[int, List[int]],
              contrib: Dict[int, float]) -> None:
        """Progressive fill of the rising region.

        The same bottleneck-freezing algorithm as
        ``IncrementalMaxMin._fill`` (lazy link-saturation heap plus a
        rate-cap heap), run over region-local state: its cost follows
        the region, never the network -- no full-length (all links /
        all edges) array pass is paid per solve.
        Per-link residuals are reconstructed from the maintained
        allocation sums: ``cap - lalloc`` is the slack left by the
        whole last allocation, and adding back the region's own old
        rates (``contrib``, accumulated by the region BFS) yields the
        capacity available to the rising set.
        """
        slinks = self._slinks
        fcap = self._fcap
        cap_heap: List[Tuple[float, int]] = [
            (fcap[s], s) for s in slots if fcap[s] != _INF]
        n_active = len(slots)

        touched = list(lflows)
        llevel = self._llevel
        for li in touched:
            # Refreshed below as links fire; a link that never fires
            # bottlenecks nobody in the new allocation.
            llevel[li] = _INF
        cap_list = self._cap_list
        allocs = self._lalloc[touched].tolist()
        lrem = self._f_rem
        lmark = self._f_mark
        lver = self._f_ver
        lrising = self._f_rising
        link_heap: List[Tuple[float, int, int]] = []
        for li, alloc in zip(touched, allocs):
            left = cap_list[li] - alloc + contrib[li]
            if left < 0.0:
                left = 0.0
            n = len(lflows[li])
            lrem[li] = left
            lmark[li] = 0.0
            lver[li] = 1
            lrising[li] = n
            link_heap.append((left / n, 1, li))
        heapify(link_heap)
        heapify(cap_heap)

        frozen: set = set()
        out_slots: List[int] = []
        out_rates: List[float] = []
        level = 0.0
        #: Scratch: links touched by the flows of one freeze batch, with
        #: how many of their rising users froze.  Charging each link
        #: once per batch is algebraically identical to the sequential
        #: per-flow charge (after the first advance to the batch level,
        #: subsequent charges at the same level are zero).
        charges: Dict[int, int] = {}

        while n_active:
            while cap_heap and cap_heap[0][1] in frozen:
                heappop(cap_heap)
            cap_level = cap_heap[0][0] if cap_heap else _INF
            while link_heap:
                sat_level, ver, li = link_heap[0]
                if lver[li] == ver:
                    break
                heappop(link_heap)
                n = lrising[li]
                if n > 0:
                    left = lrem[li]
                    if left < 0.0:
                        left = 0.0
                    heappush(link_heap, (lmark[li] + left / n, lver[li], li))
            link_level = link_heap[0][0] if link_heap else _INF
            if cap_level == _INF and link_level == _INF:
                # pragma: no cover - defensive (no-link flows are
                # frozen before the fill)
                for s in slots:
                    if s not in frozen:
                        out_slots.append(s)
                        out_rates.append(_INF)
                break
            if cap_level <= link_level:
                cap, s = heappop(cap_heap)
                if level < cap:
                    level = cap
                frozen.add(s)
                out_slots.append(s)
                out_rates.append(cap)
                n_active -= 1
                for m in slinks[s]:
                    n = lrising[m]
                    left = lrem[m] - (level - lmark[m]) * n
                    lrem[m] = left if left > 0.0 else 0.0
                    lmark[m] = level
                    lrising[m] = n - 1
                    lver[m] += 1
            else:
                sat_level, _, li = heappop(link_heap)
                if level < sat_level:
                    level = sat_level
                llevel[li] = level
                charges.clear()
                charges_get = charges.get
                for s in lflows[li]:
                    if s in frozen:
                        continue
                    frozen.add(s)
                    out_slots.append(s)
                    out_rates.append(level)
                    n_active -= 1
                    for m in slinks[s]:
                        charges[m] = charges_get(m, 0) + 1
                for m, k in charges.items():
                    n = lrising[m]
                    left = lrem[m] - (level - lmark[m]) * n
                    lrem[m] = left if left > 0.0 else 0.0
                    lmark[m] = level
                    lrising[m] = n - k
                    lver[m] += 1
        self._rate[out_slots] = out_rates
        rlist = self._rlist
        for s, r in zip(out_slots, out_rates):
            rlist[s] = r


# -- scripts ------------------------------------------------------------------

#: Grid capacities make equal water levels (ties between links) common;
#: the free floats make inexact quotients.
_VALUES = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0, 3.0, 6.0, 10.0]),
    st.floats(min_value=0.5, max_value=100.0),
)


@st.composite
def _scripts(draw):
    """``(capacities, ops)``; an op is ``("add", fid, path)``,
    ``("remove", fid)``, ``("capacity", link, value)`` or
    ``("consult",)``."""
    n_links = draw(st.integers(1, 6))
    capacities = {f"l{i}": draw(_VALUES) for i in range(n_links)}
    link_ids = sorted(capacities)
    ops = []
    live = []
    for index in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(
            ["add", "add", "add", "remove", "remove", "capacity",
             "consult"]))
        if kind == "remove" and live:
            fid = draw(st.sampled_from(live))
            live.remove(fid)
            ops.append(("remove", fid))
        elif kind == "capacity":
            link = draw(st.sampled_from(link_ids))
            value = draw(st.one_of(
                st.just(0.0), st.just(capacities[link]), _VALUES))
            ops.append(("capacity", link, value))
        elif kind == "consult":
            ops.append(("consult",))
        else:
            fid = f"f{index}"
            # Repeats allowed (set semantics), empty allowed.
            path = draw(st.lists(st.sampled_from(link_ids), max_size=5))
            ops.append(("add", fid, path))
            live.append(fid)
    ops.append(("consult",))
    return capacities, ops


def _observe(solver):
    """Everything a consult shows, compared with ``==``."""
    rates = solver.rates_array()[:solver.nslots].tobytes()
    return rates, list(solver._llevel), solver.stats


def _play_both(capacities, ops):
    """Drive the frozen and the live solver in lockstep; returns how
    many consults agreed."""
    frozen = _FrozenVectorizedMaxMin(dict(capacities))
    live = VectorizedMaxMin(dict(capacities))
    consults = 0
    for index, op in enumerate(ops):
        if op[0] == "add":
            want = frozen.add_flow(op[1], op[2])
            assert live.add_flow(op[1], op[2]) == want
        elif op[0] == "remove":
            frozen.remove_flow(op[1])
            live.remove_flow(op[1])
        elif op[0] == "capacity":
            frozen.set_capacity(op[1], op[2])
            live.set_capacity(op[1], op[2])
        else:
            assert _observe(live) == _observe(frozen), (index, op)
            consults += 1
    return consults


@settings(max_examples=300, deadline=None)
@given(_scripts())
def test_live_solver_matches_the_frozen_one_exactly(script):
    capacities, ops = script
    assert _play_both(capacities, ops) >= 1


def test_script_that_hits_every_branch():
    """A fixed script, so the cases are covered whatever hypothesis
    draws: a shared link that bottlenecks everyone, a link that
    bottlenecks nobody, a repeated link, empty paths,
    the un-add of a fresh flow, a cut to 0 and its restore, and a
    re-visited link whose level rises."""
    capacities = {"a": 3.0, "b": 10.0, "c": 2.0, "d": 6.0}
    ops = [("add", f"s{i}", ["a", "b"]) for i in range(3)]
    ops += [
        ("add", "wide", ["b", "d", "b"]),
        ("add", "narrow", ["c", "d"]),
        ("add", "linkless", []),
        ("add", "free", []),
        ("consult",),
        ("remove", "s0"), ("remove", "s1"), ("add", "late", ["a"]),
        ("consult",),
        ("add", "gone", ["a", "c"]), ("remove", "gone"),
        ("consult",),
        ("capacity", "b", 0.0), ("consult",),
        ("capacity", "b", 10.0), ("remove", "narrow"), ("consult",),
        ("capacity", "d", 1.0), ("add", "tail", ["c", "d"]),
        ("consult",),
    ]
    assert _play_both(capacities, ops) == 6


def test_revisit_admits_a_flow_the_first_visit_rejected():
    """A re-visit of link ``L`` whose rejected rate sits just above the
    even-split bound 8 / 4 = 2.  The first visit (one riser, the fresh
    ``f``) rejects ``x``, held at 2.01 by its own link ``X``, below its
    water-fill level 2.495; ``y``
    then joins the region through ``M``'s capacity rise, and the
    re-visit's level drops to 2, which admits ``x``: everyone on ``L``
    ends at 2."""
    capacities = {"L": 8.0, "M": 1.0, "X": 2.01}
    ops = [
        ("add", "x", ["L", "X"]), ("add", "y", ["L", "M"]),
        ("add", "z", ["L"]), ("consult",),
        ("add", "f", ["L"]), ("capacity", "M", 10.0), ("consult",),
    ]
    assert _play_both(capacities, ops) == 2
    live = VectorizedMaxMin(capacities)
    for op in ops[:3]:
        live.add_flow(op[1], op[2])
    assert dict(live.rates()) == {"x": 2.01, "y": 1.0, "z": 8.0 - 2.01 - 1.0}
    live.add_flow("f", ["L"])
    live.set_capacity("M", 10.0)
    assert dict(live.rates()) == {"x": 2.0, "y": 2.0, "z": 2.0, "f": 2.0}


class _Recording(VectorizedMaxMin if HAVE_NUMPY else object):
    """The live solver, logging every call the simulator makes."""

    def __init__(self, capacities):
        super().__init__(capacities)
        self.ops = []

    def add_flow(self, flow_id, links):
        self.ops.append(("add", flow_id, tuple(links)))
        return super().add_flow(flow_id, links)

    def remove_flow(self, flow_id):
        self.ops.append(("remove", flow_id))
        super().remove_flow(flow_id)

    def set_capacity(self, link_id, capacity):
        self.ops.append(("capacity", link_id, capacity))
        super().set_capacity(link_id, capacity)

    def rates_array(self):
        self.ops.append(("consult",))
        return super().rates_array()


def test_large_region_replay_matches_exactly():
    """Regions past a thousand flows (``test_vectorized``'s 1,500-flow
    history), which the hypothesis scripts never reach."""
    capacities, history = large_region_history()
    ops = []
    for op in history:
        if op[0] == "solve":
            ops.append(("consult",))
        elif op[0] == "reroute":
            ops += [("remove", op[1]), ("add",) + op[1:]]
        else:
            ops.append(op)
    assert _play_both(capacities, ops) == 5


@pytest.mark.parametrize("fault_rate", [0.0, 0.4])
def test_quick_netagg_replay_matches_exactly(monkeypatch, fault_rate):
    """The solver calls of a QUICK-scale NetAgg run (link flaps and box
    faults at 0.4), replayed through both solvers."""
    solvers = []

    def recording(capacities, backend):
        solvers.append((dict(capacities), _Recording(capacities)))
        return solvers[-1][1]

    monkeypatch.setattr(simulator, "make_solver", recording)
    schedule = None
    if fault_rate:
        clean = simulate(QUICK, NetAggStrategy(), deploy=deploy_boxes)
        horizon = max(r.drain_time for r in clean.records.values())
        schedule = _make_schedule(QUICK, fault_rate, horizon, seed=1)
    simulate(QUICK, NetAggStrategy(), deploy=deploy_boxes, seed=1,
             faults=schedule)
    capacities, solver = solvers[-1]
    ops = solver.ops
    assert _play_both(capacities, ops) > 50
    if fault_rate:
        assert any(op[0] == "capacity" for op in ops)
