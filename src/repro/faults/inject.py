"""Per-layer fault injectors: one schedule, two execution layers.

Both injectors consume a :class:`repro.faults.FaultSchedule`, and each
reads only the kinds the experiments send its layer (the table in
:mod:`repro.faults.schedule`):

- :class:`SimFaultInjector` maps events onto the flow-level simulator:
  box crashes, degradations, overload and shed windows and link faults
  become scheduled capacity changes, and segment flows caught in flight
  by a *permanent* box crash are re-admitted along the §3.1-rewired tree
  via reroute events;
- :class:`PlatformFaultInjector` answers the functional platform's
  connect-time questions (is this box down at my clock?  how slowed?
  is this worker churning?  is it cut off?), driving the shim
  retry/backoff ladder.

The testbed emulator takes no faults: no experiment sends it any.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.failure import rewire_failed_box, rewire_out
from repro.core.tree import AggregationTree, TreeBuilder
from repro.faults.domains import in_scope
from repro.faults.schedule import (
    BOX_CRASH,
    BOX_DEGRADE,
    BOX_GRAY,
    BOX_OVERLOAD,
    BOX_RECOVER,
    BOX_SHED,
    LINK_DOWN,
    LINK_UP,
    NET_PARTITION,
    WORKER_CHURN,
    FaultSchedule,
)
from repro.topology.base import Topology, link_id as make_link_id


#: The box links each box fault kind changes (``BoxInfo`` attributes).
_TOUCHED = {
    BOX_CRASH: ("downlink", "uplink", "proc_link"),
    BOX_RECOVER: ("downlink", "uplink", "proc_link"),
    BOX_DEGRADE: ("proc_link",),
    BOX_OVERLOAD: ("proc_link",),
    BOX_SHED: ("downlink",),
}


def _lane_links(nodes: Sequence[str]) -> Tuple[str, ...]:
    return tuple(make_link_id(a, b) for a, b in zip(nodes, nodes[1:]))


class SimFaultInjector:
    """Maps a fault schedule onto :class:`repro.netsim.FlowSim` runs.

    Usage::

        injector = SimFaultInjector(topo, schedule)
        strategy = NetAggStrategy(fault_view=injector.fault_view)
        sim = FlowSim(topo.network)
        sim.add_flows(strategy.plan(workload, topo))
        injector.apply(sim, workload)

    ``fault_view`` lets the strategy plan jobs that *start after* a crash
    on the rewired tree (§3.1: future trees route around known-failed
    boxes); :meth:`apply` handles everything else -- capacity events for
    every fault window, and reroute events that re-admit the segment
    flows of jobs already in flight when a permanent crash lands.
    """

    def __init__(self, topo: Topology, schedule: FaultSchedule) -> None:
        self._topo = topo
        self._schedule = schedule
        self._known_boxes = {info.box_id for info in topo.all_boxes()}
        #: Box link id -> the box it attaches (downlink, uplink) or
        #: serves (processing link).
        self._box_of_link = {
            link: info for info in topo.all_boxes()
            for link in (info.downlink, info.uplink, info.proc_link)}

    @property
    def schedule(self) -> FaultSchedule:
        return self._schedule

    def fault_view(self, job) -> Set[str]:
        """Boxes to plan around when ``job`` starts: the crashed ones."""
        return self._schedule.crashed_at(job.start_time) & self._known_boxes

    def capacity_events(self, network) -> List[Tuple[float, str, float]]:
        """(when, link_id, capacity) tuples realising the schedule.

        Each event touches some links: a box crash or recovery the box's
        attachment and processing links, ``box-degrade`` and
        ``box-overload`` (service slows under queueing) its processing
        link, ``box-shed`` (refused ingress) its downlink, a link fault
        the named link.  Every touched link is set to the capacity the
        schedule gives it at the event -- and, for an overload or shed
        window, again at the window's end -- so faults on one link
        compose: the worst overlapping overload applies, and neither a
        recovery nor a window's end re-opens a link another fault still
        holds.  Events whose target does not exist in ``network`` (e.g.
        box faults replayed against a boxless baseline topology) are
        skipped, so the same schedule applies to every strategy.
        """
        base = network.capacities()
        out: List[Tuple[float, str, float]] = []
        for event in self._schedule:
            if event.kind in (LINK_DOWN, LINK_UP):
                touched: Sequence[str] = (event.target,)
            elif event.kind in _TOUCHED and event.target in self._known_boxes:
                info = self._topo.box(event.target)
                touched = [getattr(info, attr)
                           for attr in _TOUCHED[event.kind]]
            else:
                continue
            ends = (event.time, event.time + event.duration) \
                if event.kind in (BOX_OVERLOAD, BOX_SHED) else (event.time,)
            for when in ends:
                for link in touched:
                    if link in base:
                        out.append((when, link,
                                    self._capacity_at(link, when, base[link])))
        return out

    def _capacity_at(self, link: str, t: float, built: float) -> float:
        """``link``'s capacity at ``t`` given its ``built`` capacity: 0
        while it is down, its box crashed or (a downlink) its box
        shedding; a processing link divided by the box's degradation and
        worst overload."""
        schedule = self._schedule
        if link in schedule.links_down_at(t):
            return 0.0
        info = self._box_of_link.get(link)
        if info is None:
            return built
        box = info.box_id
        if box in schedule.crashed_at(t):
            return 0.0
        if link == info.downlink and schedule.shedding_at(box, t):
            return 0.0
        if link == info.proc_link:
            return built / (schedule.degradation_at(box, t)
                            * schedule.overload_at(box, t))
        return built

    def apply(self, sim, workload=None) -> int:
        """Install the schedule on a simulator; returns events added.

        ``workload`` enables §3.1 reroutes for permanently-crashed boxes
        (flows are matched by the NetAgg strategy's segment naming, so a
        boxless plan is silently unaffected).
        """
        count = 0
        for when, changed_link, capacity in self.capacity_events(sim.network):
            sim.add_capacity_event(when, changed_link, capacity)
            count += 1
        if workload is not None:
            path_now = {fid: sim.spec(fid).path for fid in sim.flow_ids()}
            for when, flow_id, path in self.reroute_events(workload, path_now):
                sim.add_reroute_event(when, flow_id, path)
                count += 1
        return count

    def reroute_events(
        self,
        workload,
        path_now: Dict[str, Tuple[str, ...]],
    ) -> List[Tuple[float, str, Tuple[str, ...]]]:
        """§3.1 re-admissions for flows in flight at a permanent crash.

        For each permanently-crashed box and each job planned before the
        crash, the job's trees are rebuilt deterministically (the same
        construction the strategy used), the box is rewired out, and the
        affected segment flows -- workers entering the box, the box's own
        output segment, and child-box segments feeding it -- continue on
        the joined lane into the adopting parent (or the master).  Only
        flows whose *current* path actually touches the dead box are
        rerouted (straggler-bypassed workers already go direct), and
        ``path_now`` is updated in place so cascading crashes compose.
        """
        permanent = self._schedule.permanent_crashes()
        if not permanent:
            return []
        crashes = sorted((tc, box) for box, tc in permanent.items())
        builder = TreeBuilder(self._topo)
        out: List[Tuple[float, str, Tuple[str, ...]]] = []
        for job in workload.jobs:
            later = [(tc, box) for tc, box in crashes if tc > job.start_time]
            if not later:
                continue
            hosts = [h for h, _ in job.workers]
            # Reproduce the plan-time view: boxes already down at job
            # start were rewired out before any flow existed.
            down = self.fault_view(job)
            trees = [rewire_out(tree, down) for tree in builder.build_many(
                job.job_id, job.master, hosts, job.n_trees)]
            for crash_time, box in later:
                for i, tree in enumerate(trees):
                    if box not in tree.boxes:
                        continue
                    reroutes = self._tree_reroutes(job, tree, box,
                                                   crash_time, path_now)
                    for when, flow_id, path in reroutes:
                        path_now[flow_id] = path
                        out.append((when, flow_id, path))
                    trees[i] = rewire_failed_box(tree, box)
        return out

    def _tree_reroutes(
        self,
        job,
        tree: AggregationTree,
        box: str,
        crash_time: float,
        path_now: Dict[str, Tuple[str, ...]],
    ) -> List[Tuple[float, str, Tuple[str, ...]]]:
        vertex = tree.boxes[box]
        rewired = rewire_failed_box(tree, box)
        prefix = f"{job.job_id}:t{tree.tree_index}"
        info = vertex.info
        dead_links = {info.downlink, info.uplink, info.proc_link}
        master_edge = make_link_id(tree.master_tor, job.master)

        def touched(flow_id: str) -> bool:
            path = path_now.get(flow_id)
            return path is not None and any(l in dead_links for l in path)

        def into(tree_after: AggregationTree,
                 parent: Optional[str]) -> Tuple[str, ...]:
            """Final hops into the adopting parent box (or the master)."""
            if parent is None:
                return (master_edge,)
            pinfo = tree_after.boxes[parent].info
            return (pinfo.downlink, pinfo.proc_link)

        out: List[Tuple[float, str, Tuple[str, ...]]] = []

        # Workers that entered the dead box redirect up the joined lane.
        for w in vertex.direct_workers:
            flow_id = f"{prefix}:w{w}"
            if not touched(flow_id):
                continue
            host = job.workers[w][0]
            lane = rewired.worker_lane[w]
            path = _lane_links((host,) + lane) \
                + into(rewired, rewired.worker_entry[w])
            out.append((crash_time, flow_id, path))

        # The dead box's output segment: its bytes bypass the box and
        # follow the lane to the adopting parent (fluid stand-in for the
        # children's replayed partials reaching the §3.1 detector node).
        flow_id = f"{prefix}:b:{box}"
        if touched(flow_id):
            path = _lane_links(vertex.lane_to_parent) \
                + into(tree, vertex.parent)
            out.append((crash_time, flow_id, path))

        # Child boxes that fed the dead box now feed its parent.
        for child in vertex.children:
            flow_id = f"{prefix}:b:{child}"
            if not touched(flow_id):
                continue
            cvert = rewired.boxes[child]
            path = (cvert.info.uplink,) \
                + _lane_links(cvert.lane_to_parent) \
                + into(rewired, cvert.parent)
            out.append((crash_time, flow_id, path))
        return out


class PlatformFaultInjector:
    """Connect-time fault oracle for :class:`repro.core.NetAggPlatform`.

    The platform advances a deterministic virtual clock as shims send,
    retry and back off; every question here is a pure function of the
    schedule and that clock, so request outcomes are reproducible.
    Faults are evaluated when a shim *connects* -- mid-stream box death
    is the domain of :class:`repro.core.recovery.InFlightRequest`.

    Constructed with a ``topo``, the injector becomes partition-aware:
    :meth:`isolated` answers whether an active ``net-partition`` scope
    separates two endpoints (exactly one of them inside the scope).
    Without a topology nothing is ever cut off.
    """

    def __init__(self, schedule: FaultSchedule,
                 topo: Optional[Topology] = None) -> None:
        self._topo = topo
        self._schedule = schedule
        # A schedule does not change once built, so whom it names is
        # known here: a box, a worker or a partition scope that no
        # event names gets its answer without a scan of the events.
        named: Dict[str, Set[str]] = {}
        for event in schedule:
            named.setdefault(event.kind, set()).add(event.target)
        self._crashable = named.get(BOX_CRASH, set())
        self._slowed = named.get(BOX_DEGRADE, set()) \
            | named.get(BOX_GRAY, set())
        self._churning = named.get(WORKER_CHURN, set())
        self._partitioned = NET_PARTITION in named

    @property
    def schedule(self) -> FaultSchedule:
        return self._schedule

    @property
    def topo(self) -> Optional[Topology]:
        return self._topo

    def box_down(self, box_id: str, t: float) -> bool:
        """Is the box crashed (and not yet recovered) at clock ``t``?"""
        return box_id in self._crashable \
            and box_id in self._schedule.crashed_at(t)

    def churn_until(self, worker_index: int, t: float) -> Optional[float]:
        """End of a churn window covering worker ``worker_index`` at ``t``."""
        target = f"worker:{worker_index}"
        if target not in self._churning:
            return None
        return self._schedule.churn_until(target, t)

    def slowdown(self, box_id: str, t: float) -> float:
        """How many times slower than healthy a send into the box is at
        ``t`` (1.0 = not slowed): its ``box-degrade`` level times its
        worst ``box-gray`` window.

        A gray window, unlike a degradation, is invisible to scheduled
        health machinery: only the observed service time betrays it.
        """
        if box_id not in self._slowed:
            return 1.0
        schedule = self._schedule
        return schedule.degradation_at(box_id, t) \
            * schedule.gray_at(box_id, t)

    def isolated(self, node_id: str, other: str,
                 t: float) -> Optional[str]:
        """The partition scope separating two endpoints at ``t``, if any.

        A scope separates the endpoints when exactly one of them is
        inside it (both-inside stays connected intra-domain, both
        outside never crossed the cut).  Returns the scope name, or
        ``None`` when the endpoints can reach each other (always, when
        the injector has no topology).
        """
        if self._topo is None or not self._partitioned:
            return None
        for scope in self._schedule.partitions_at(t):
            inside = in_scope(self._topo, node_id, scope)
            if inside != in_scope(self._topo, other, scope):
                return scope
        return None

