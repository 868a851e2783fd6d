"""Vectorized max-min fair rate allocation (the numpy backend).

:class:`VectorizedMaxMin` is a drop-in alternative to
:class:`repro.netsim.incremental.IncrementalMaxMin`: the same mutation
API (``add_flow`` / ``remove_flow`` / ``set_capacity``),
the same :meth:`rates` contract and the same
:class:`~repro.netsim.incremental.SolverStats` counters, but with the
progressive filling executed as array operations over link x flow
incidence arrays instead of per-flow Python objects.

**Data layout.**  Flows live in monotonically allocated *slots*; slot 0
is a reserved sink so the edge arrays never need renumbering when a
flow is removed.  The link x flow incidence is a CSR-style pair of
append-only index arrays (``edge_flow[i]`` traverses ``edge_link[i]``)
with a contiguous ``[estart, eend)`` range per slot; removing a flow
just repoints its edges at the sink slot (whose rate is pinned to 0, so
dead edges contribute nothing to any reduction) and the arrays are
compacted once dead edges outnumber live ones.  Per-link state is
plain Python lists (capacity, recorded water level, live user slots)
plus one numpy allocated-rate vector, all maintained incrementally.

**Warm-start solve.**  A solve first builds the exact *cascade region*
-- the set of flows whose rates the pending mutations can change --
from the perturbed links outward (see :meth:`_build_region`): each
link admits only the flows at or above a sound per-link floor (the
``min`` of its recorded water level and a single-link water-fill
level), and admissions re-queue the admitted flows' other links until
the region reaches a fixpoint.  Everything outside the region keeps
its cached rate and acts as a frozen capacity debit.  The region then
refills by progressive filling (:meth:`_fill`, one heap kernel for
every region size) exactly as
:func:`repro.netsim.fairness.max_min_rates_py` would; property tests
cross-check the three solvers against each other to within 1e-9.
numpy carries the edge arrays and the per-solve ``bincount``, not the
fill (measurements: ARCHITECTURE, "Why three max-min implementations").

Three pruning rules skip work whose outcome is already known, so they
change what a solve scans and never what it resolves (every rate,
water level and :class:`SolverStats` counter is bit-identical with
and without them; ``tests/test_vectorized_differential.py`` holds the
solver to a frozen copy from before them):

1. a visit to a link that bottlenecked nobody (recorded level +inf,
   capacity unchanged) is skipped when the capacity its candidates
   leave to its region users, shared among them, already exceeds
   ``_lmax``, a per-link upper bound on its users' rates -- the link
   cannot saturate below that share, so nobody on it can be admitted;
2. a re-visit is skipped when the largest rate the previous visit
   rejected is below the link's even-split bound: that bound is the
   same at every visit of one solve, and a visit lowers its floor
   only for a candidate at or above it;
3. of one flow's single-user links only the lowest ``(level, link)``
   enters the fill's heap: each can fire only for that flow, and the
   flow is frozen before any but the lowest could fire.

numpy is a soft dependency: importing this module without numpy leaves
:data:`HAVE_NUMPY` false and :func:`make_solver` falls back to the
pure-Python incremental solver (the ``solver="auto"`` default on
:class:`repro.netsim.simulator.FlowSim`).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.netsim.incremental import (
    IncrementalMaxMin,
    SolverStats,
    _THRESHOLD_SLACK,
    _check_rate_cap,
)

try:  # pragma: no cover - exercised by the no-numpy CI leg
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: True when the numpy backend is importable in this interpreter.
HAVE_NUMPY = _np is not None

#: Valid values for the ``solver=`` knob on FlowSim.
SOLVER_BACKENDS = ("auto", "vectorized", "incremental")

_INF = float("inf")

#: Compact the edge arrays once this many dead edges accumulate (and
#: they outnumber the live ones); keeps leave/attach storms from
#: growing every per-solve reduction without paying a rebuild per event.
_COMPACT_MIN_DEAD = 256


def make_solver(capacities: Mapping[str, float], backend: str = "auto"):
    """Build a max-min solver for ``capacities``.

    ``backend`` is the ``solver=`` knob: ``"vectorized"`` requires
    numpy, ``"incremental"`` is the pure-Python solver, and ``"auto"``
    (the default) picks the vectorized backend when numpy is importable
    and falls back to the incremental solver otherwise.
    """
    if backend == "auto":
        backend = "vectorized" if HAVE_NUMPY else "incremental"
    if backend == "incremental":
        return IncrementalMaxMin(capacities)
    if backend == "vectorized":
        return VectorizedMaxMin(capacities)
    raise ValueError(
        f"unknown solver backend {backend!r}; choose from {SOLVER_BACKENDS}")


class VectorizedMaxMin:
    """Max-min fair rates over a mutable flow set, solved with numpy.

    Same contract as :class:`IncrementalMaxMin`; additionally exposes
    the slot/array view the simulator's vectorized epoch loop uses:
    :meth:`add_flow` returns the flow's slot index and
    :meth:`rates_array` returns the (solved) per-slot rate vector.
    """

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
        #: Per-link upper bound on the rates of the link's users: the
        #: fill raises it, a region visit that scans the link resets it
        #: (see :meth:`_build_region`).
        self._lmax: List[float] = [0.0] * nlinks

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

        Two visits are skipped without scanning the link's users, both
        only when the scan could not admit anyone:

        - *Non-bottleneck links.*  On a link whose recorded level is
          +inf and whose capacity did not change, the floor is the
          water-fill level alone.  With ``k`` region users, the
          candidates (at most their current rates, whose sum is
          ``lalloc - contrib``) leave at least ``cap - lalloc +
          contrib`` to the risers, so the link cannot saturate below
          that over ``k``.  ``_lmax`` bounds every candidate's rate:
          when it is below that share, nobody reaches the floor.  The
          share is cut by 1e-9 of ``cap`` first, which covers the
          rounding of ``lalloc`` (a ``bincount``, then a subtraction
          per removal) and of ``contrib``, and by the floor's own
          slack.  The rule needs the +inf level: at a finite level the
          floor can sit below the share (three flows at rate 1 on a
          link of capacity 3; two leave and one joins: the survivor
          must rise to 1.5 although the share is 2).  With no region
          user the floor is +inf, so only an infinite rate could be
          admitted.
        - *Re-visits.*  ``k + len(cand)`` is the link's user count, so
          the even-split bound ``cap / (k + len(cand))`` is the same at
          every visit of one solve.  A re-visit can only admit a flow
          the previous visit rejected, and only through a water-fill
          level below that visit's floor, which it computes only for a
          candidate at or above the bound.  If every rejected rate is
          below the bound, the re-visit admits nobody.

        A visit that does scan resets ``_lmax`` to its largest
        candidate rate; :meth:`_fill` raises it for the rates it writes.

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
        lmax = self._lmax
        lalloc = self._lalloc
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
        #: Largest rate the link's last scanning visit rejected.
        rejected: Dict[int, float] = {}
        qi = 0
        while qi < len(queue):
            li = queue[qi]
            qi += 1
            inq.discard(li)
            prev = part.get(li)
            if prev is None:
                prev = lflows[li]
            elif rejected[li] < cap_list[li] / len(lflows[li]) \
                    * _THRESHOLD_SLACK:
                # Re-visit: nobody left reaches the even-split bound.
                continue
            level = llevel[li]
            if level == _INF and li not in cap_seeds:
                # Non-bottleneck link: skip it when every candidate is
                # below the lowest level it can saturate at.
                users = adm.get(li)
                if users is None:
                    if lmax[li] < _INF:
                        continue
                elif (cap_list[li] * _THRESHOLD_SLACK - lalloc.item(li)
                      + contrib[li]) \
                        / len(users) * _THRESHOLD_SLACK > lmax[li]:
                    continue
            cand = [s for s in prev if s not in region]
            part[li] = cand
            if not cand:
                rejected[li] = -1.0
                continue
            top = max([rlist[s] for s in cand])
            lmax[li] = top
            k = len(lflows[li]) - len(cand)
            floor = level * _THRESHOLD_SLACK
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
                if lb <= top and lb < floor and (top < floor or any(
                        lb <= rlist[s] < floor for s in cand)):
                    sat = self._sat_level(li, cand, k) * _THRESHOLD_SLACK
                    if sat < floor:
                        floor = sat
            if top < floor:
                rejected[li] = top
                continue
            worst = -1.0
            for s in cand:
                r = rlist[s]
                if r < floor:
                    if r > worst:
                        worst = r
                else:
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
            rejected[li] = worst
        return sorted(region), adm, contrib

    def _sat_level(self, li: int, env_slots: List[int], k: int) -> float:
        """Lowest level link ``li`` can saturate at, given ``k`` region
        users rising in lockstep and ``env_slots`` frozen at their
        current rates (single-link water-fill; +inf when it cannot
        saturate)."""
        cap = self._cap_list[li]
        rlist = self._rlist
        env = [rlist[s] for s in env_slots]
        env.sort()
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

        A link with one rising user can only fire for that user, and its
        entry stays valid until the user freezes.  So of one flow's
        single-user links only the lowest ``(level, link id)`` can fire;
        the others would be popped stale once the flow froze, and only
        that entry is pushed.  Their ``llevel`` stays +inf, as it did
        when they never fired.  Freeze levels never fall, so the rate a
        link's last rising user freezes at bounds all its region users:
        that is where ``_lmax`` is raised.
        """
        slinks = self._slinks
        fcap = self._fcap
        cap_heap: List[Tuple[float, int]] = [
            (fcap[s], s) for s in slots if fcap[s] != _INF]
        n_active = len(slots)

        touched = list(lflows)
        llevel = self._llevel
        cap_list = self._cap_list
        allocs = self._lalloc[touched].tolist()
        lrem = self._f_rem
        lmark = self._f_mark
        lver = self._f_ver
        lrising = self._f_rising
        lmax = self._lmax
        link_heap: List[Tuple[float, int, int]] = []
        #: Per flow, the lowest entry of its single-user links.
        single: Dict[int, Tuple[float, int, int]] = {}
        for li, alloc in zip(touched, allocs):
            # Refreshed below as links fire; a link that never fires
            # bottlenecks nobody in the new allocation.
            llevel[li] = _INF
            left = cap_list[li] - alloc + contrib[li]
            if left < 0.0:
                left = 0.0
            users = lflows[li]
            n = len(users)
            lver[li] = 1
            lrising[li] = n
            if n == 1:
                # Its residual is never read: the link dies when its
                # one user freezes.
                entry = (left, 1, li)
                best = single.get(users[0])
                if best is None or entry < best:
                    single[users[0]] = entry
            else:
                lrem[li] = left
                lmark[li] = 0.0
                link_heap.append((left / n, 1, li))
        link_heap.extend(single.values())
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
                        for m in slinks[s]:
                            lmax[m] = _INF
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
                    lver[m] += 1
                    if n == 1:
                        # The link's last riser: nothing reads its
                        # residual again.
                        lrising[m] = 0
                        if lmax[m] < cap:
                            lmax[m] = cap
                        continue
                    left = lrem[m] - (level - lmark[m]) * n
                    lrem[m] = left if left > 0.0 else 0.0
                    lmark[m] = level
                    lrising[m] = n - 1
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
                    lver[m] += 1
                    if n == k:
                        lrising[m] = 0
                        if lmax[m] < level:
                            lmax[m] = level
                        continue
                    left = lrem[m] - (level - lmark[m]) * n
                    lrem[m] = left if left > 0.0 else 0.0
                    lmark[m] = level
                    lrising[m] = n - k
        self._rate[out_slots] = out_rates
        rlist = self._rlist
        for s, r in zip(out_slots, out_rates):
            rlist[s] = r
