"""NetAgg's on-path aggregation strategy (§2.3, §3.1).

Partial results are redirected to the *first agg box along the network
path* from each worker to the master; boxes form a spanning aggregation
tree rooted at the master.  Tree construction (lanes, box assignment,
scale-out balancing, multiple disjoint trees) lives in
:class:`repro.core.tree.TreeBuilder`, shared with the functional
platform; this module maps the resulting trees onto flow specs for the
flow-level simulator.

Output sizes follow the saturating-dictionary model (DESIGN.md): a box
whose subtree received ``I`` bytes forwards ``min(I, alpha * R_tree)``
where ``R_tree`` is the raw intermediate data of this tree's key share.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.aggregation.base import AggregationStrategy, worker_start_time
from repro.core.tree import AggregationTree, TreeBuilder, lane_links
from repro.netsim.routing import EcmpRouter
from repro.netsim.simulator import FlowSpec
from repro.topology.base import AGGR, CORE, TOR, Topology
from repro.units import Gbps
from repro.workload.synthetic import AggJob


#: Start delay (seconds) past which a worker bypasses the tree.
STRAGGLER_BYPASS = 0.2


class NetAggStrategy(AggregationStrategy):
    """On-path aggregation at agg boxes attached to switches.

    :data:`STRAGGLER_BYPASS` implements §3.1's straggler handling: a worker
    whose start delay exceeds the threshold ships its partial result
    *directly to the master* instead of through the tree ("the agg box
    just aggregates available results, while the rest is sent directly
    to the reducer"), so one late worker does not hold the whole tree's
    aggregate hostage.

    ``fault_view`` implements §3.1's failure handling at plan time: a
    callable ``job -> iterable of failed box ids``; each named box is
    rewired out of the job's trees (children adopted by its parent,
    lanes joined) before flows are emitted, so jobs planned after a
    crash route around the dead box.  Crashes landing *mid-job* are the
    business of :class:`repro.faults.SimFaultInjector`'s reroute events.
    """

    def __init__(self, name: str = "netagg",
                 fault_view: Optional[
                     Callable[[AggJob], Iterable[str]]] = None) -> None:
        self.name = name
        self.fault_view = fault_view

    def plan_job(self, job: AggJob, topo: Topology,
                 router: EcmpRouter) -> List[FlowSpec]:
        builder = TreeBuilder(topo)
        trees = builder.build_many(
            job.job_id, job.master, [h for h, _ in job.workers], job.n_trees,
            leave_out=() if self.fault_view is None else self.fault_view(job),
        )
        specs: List[FlowSpec] = []
        for tree in trees:
            specs.extend(self._tree_flows(job, tree, topo, builder))
        return specs

    def _tree_flows(self, job: AggJob, tree: AggregationTree,
                    topo: Topology, builder: TreeBuilder) -> List[FlowSpec]:
        share = 1.0 / job.n_trees
        prefix = f"{job.job_id}:t{tree.tree_index}"
        master_pod = topo.pod_of(job.master)
        specs: List[FlowSpec] = []

        # Worker segments: raw partial results into the entry box; or
        # straight to the master when no box sits on the path, or when
        # the worker straggles past the bypass threshold (§3.1: boxes
        # aggregate available results, stragglers go direct).
        bypassed = set()
        for index, (host, size) in enumerate(job.workers):
            if tree.worker_entry[index] is not None and \
                    job.delay_of(index) > STRAGGLER_BYPASS:
                bypassed.add(index)
                lane = builder.lane(job.job_id, tree.tree_index, host,
                                    tree.master_tor, master_pod)
                path = lane_links([host] + lane + [job.master])
            else:
                path = tree.worker_path(index, host)
            specs.append(FlowSpec(
                flow_id=f"{prefix}:w{index}",
                size=size * share,
                path=path,
                start_time=worker_start_time(job, index),
                job_id=job.job_id,
                kind="worker",
                aggregatable=True,
            ))

        # Box segments, children before parents.
        dictionary = job.alpha * job.total_bytes * share
        outputs: Dict[str, float] = {}

        def emit(box_id: str) -> float:
            if box_id in outputs:
                return outputs[box_id]
            vertex = tree.boxes[box_id]
            fed_by = [w for w in vertex.direct_workers
                      if w not in bypassed]
            inflow = sum(job.workers[w][1] * share for w in fed_by)
            children = [f"{prefix}:w{w}" for w in fed_by]
            for child in vertex.children:
                inflow += emit(child)
                children.append(f"{prefix}:b:{child}")
            out_bytes = min(inflow, dictionary)
            outputs[box_id] = out_bytes
            specs.append(FlowSpec(
                flow_id=f"{prefix}:b:{box_id}",
                size=out_bytes,
                path=tree.box_path(box_id),
                start_time=job.start_time,
                job_id=job.job_id,
                kind="result" if vertex.parent is None else "internal",
                aggregatable=True,
                children=tuple(children),
            ))
            return out_bytes

        for box_id in sorted(tree.boxes):
            if tree.boxes[box_id].parent is None:
                emit(box_id)
        if len(outputs) != len(tree.boxes):
            missing = sorted(set(tree.boxes) - set(outputs))
            raise RuntimeError(
                f"aggregation tree of {job.job_id!r} is not rooted: {missing}"
            )
        return specs


def deploy_boxes(
    topo: Topology,
    tiers: Sequence[str] = (TOR, AGGR, CORE),
    link_rate: float = Gbps(10.0),
    proc_rate: float = Gbps(9.2),
    boxes_per_switch: int = 1,
) -> int:
    """Attach agg boxes to every switch of the given tiers.

    Returns the number of boxes deployed.  Defaults reproduce the paper's
    full deployment (one box per switch, 10 Gbps links, 9.2 Gbps
    processing -- the prototype's measured rate).
    """
    deployed = 0
    for tier in tiers:
        for switch in topo.switches(tier):
            topo.attach_aggbox(switch, link_rate=link_rate,
                               proc_rate=proc_rate, count=boxes_per_switch)
            deployed += boxes_per_switch
    return deployed


def deploy_box_budget(
    topo: Topology,
    budget: int,
    tiers: Sequence[str],
    link_rate: float = Gbps(10.0),
    proc_rate: float = Gbps(9.2),
) -> List[str]:
    """Deploy a fixed number of boxes uniformly across the given tiers.

    Used by Fig. 12's fixed-budget comparison (e.g. 8 boxes at the core
    tier vs. spread over the aggregation tier vs. both).  Switches are
    filled round-robin tier by tier, wrapping within a tier when the
    budget exceeds its switch count (multiple boxes per switch).

    Returns the switch ids that received a box (with repetition).
    """
    if budget < 1:
        raise ValueError("box budget must be >= 1")
    switches: List[str] = []
    for tier in tiers:
        switches.extend(sorted(topo.switches(tier)))
    if not switches:
        raise ValueError(f"no switches in tiers {tiers!r}")
    placed = []
    for i in range(budget):
        switch = switches[i % len(switches)]
        topo.attach_aggbox(switch, link_rate=link_rate, proc_rate=proc_rate,
                           count=1)
        placed.append(switch)
    return placed
