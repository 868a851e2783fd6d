"""Differential oracle for §3.1 planning: trees, rewiring and paths.

``_FrozenNetAggStrategy``, ``_FrozenRerouter`` and
``_frozen_build_trees`` are verbatim copies of the flow-level strategy's
``plan_job``/``_tree_flows``, the fault injector's
``reroute_events``/``_tree_reroutes`` and the platform's
``build_trees`` as they stood when each site paired
``TreeBuilder.build_many`` with ``rewire_out`` by hand and the strategy
and the injector each spelled out the links a tree edge crosses.  The
rewiring functions and ``lane_links`` they called are frozen beside
them; only tree construction itself (``TreeBuilder.build``, held to its
own frozen twin in ``tests/test_core_tree.py``) is shared with the live
code.

Hypothesis draws QUICK-size three-tier topologies with a full
deployment (one or two boxes per switch) or a ``deploy_box_budget``
one, 1-4 jobs of 1-10 workers on 1-3 trees with straggler delays on
both sides of the bypass threshold, and permanent box crashes (plus
crash-and-recover pairs) spread over the jobs' lifetimes.  The live and
frozen strategies must plan the same flow specs, field by field, with
no fault view and with the injector's; the live and frozen injectors
must emit the same reroute events in the same order and leave the same
paths behind; a platform with the drawn boxes failed must build the
same trees as the frozen loop.
"""

from __future__ import annotations

import copy
from dataclasses import fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import NetAggStrategy, deploy_box_budget, deploy_boxes
from repro.aggregation.base import worker_start_time
from repro.aggregation.onpath import STRAGGLER_BYPASS
from repro.core.platform import NetAggPlatform
from repro.core.tree import AggregationTree, TreeBuilder
from repro.faults import FaultEvent, FaultSchedule, SimFaultInjector
from repro.faults.schedule import BOX_CRASH, BOX_RECOVER
from repro.netsim.simulator import FlowSpec
from repro.topology import ThreeTierParams, three_tier
from repro.topology.base import AGGR, CORE, TOR, Topology
from repro.topology.base import link_id as make_link_id
from repro.workload.synthetic import AggJob, Workload

QUICK_TOPO = ThreeTierParams(n_pods=2, tors_per_pod=2, aggrs_per_pod=2,
                             n_cores=2, hosts_per_tor=8)


# ---------------------------------------------------------------------------
# Frozen copies: rewiring and lane links


def _frozen_rewire_failed_box(tree: AggregationTree,
                              failed_box: str) -> AggregationTree:
    if failed_box not in tree.boxes:
        raise KeyError(f"box {failed_box!r} is not part of tree {tree.key}")
    rewired = copy.deepcopy(tree)
    failed = rewired.boxes.pop(failed_box)
    parent_id = failed.parent

    # The lane from a child continues through the failed box's lane
    # (minus the duplicated junction switch).
    def joined_lane(child_lane: Tuple[str, ...]) -> Tuple[str, ...]:
        return child_lane + failed.lane_to_parent[1:]

    if parent_id is not None:
        parent = rewired.boxes[parent_id]
        parent.children.remove(failed_box)

    for child_id in failed.children:
        child = rewired.boxes[child_id]
        child.parent = parent_id
        child.lane_to_parent = joined_lane(child.lane_to_parent)
        if parent_id is not None:
            rewired.boxes[parent_id].children.append(child_id)

    for worker_index in failed.direct_workers:
        if parent_id is None:
            # Workers now ship straight to the master.
            rewired.worker_entry[worker_index] = None
            rewired.worker_lane[worker_index] = joined_lane(
                rewired.worker_lane[worker_index]
            )
        else:
            rewired.worker_entry[worker_index] = parent_id
            rewired.worker_lane[worker_index] = joined_lane(
                rewired.worker_lane[worker_index]
            )
            rewired.boxes[parent_id].direct_workers.append(worker_index)

    return rewired


def _frozen_rewire_out(tree: AggregationTree,
                       box_ids: Iterable[str]) -> AggregationTree:
    for box_id in sorted(box_ids):
        if box_id in tree.boxes:
            tree = _frozen_rewire_failed_box(tree, box_id)
    return tree


def _frozen_lane_links(nodes: Sequence[str]) -> Tuple[str, ...]:
    return tuple(make_link_id(a, b) for a, b in zip(nodes, nodes[1:]))


# ---------------------------------------------------------------------------
# Frozen copy: the strategy's planning


class _FrozenNetAggStrategy(NetAggStrategy):
    """``plan`` (and the background planning) is inherited; only the
    per-job planning is frozen."""

    def plan_job(self, job, topo, router):
        builder = TreeBuilder(topo)
        trees = builder.build_many(
            job.job_id, job.master, [h for h, _ in job.workers], job.n_trees
        )
        if self.fault_view is not None:
            failed = set(self.fault_view(job))
            trees = [_frozen_rewire_out(tree, failed) for tree in trees]
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

        bypassed = set()
        for index, (host, size) in enumerate(job.workers):
            flow_id = f"{prefix}:w{index}"
            start = worker_start_time(job, index)
            entry = tree.worker_entry[index]
            lane = tree.worker_lane[index]
            if entry is not None and \
                    job.delay_of(index) > STRAGGLER_BYPASS:
                bypassed.add(index)
                entry = None
                lane = tuple(builder.lane(job.job_id, tree.tree_index,
                                          host, tree.master_tor,
                                          master_pod))
            if entry is None:
                path = _frozen_lane_links((host,) + lane + (job.master,))
            else:
                info = tree.boxes[entry].info
                path = _frozen_lane_links((host,) + lane) + (
                    info.downlink, info.proc_link,
                )
            specs.append(FlowSpec(
                flow_id=flow_id,
                size=size * share,
                path=path,
                start_time=start,
                job_id=job.job_id,
                kind="worker",
                aggregatable=True,
            ))

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
            if vertex.parent is not None:
                parent = tree.boxes[vertex.parent]
                path = (
                    (vertex.info.uplink,)
                    + _frozen_lane_links(vertex.lane_to_parent)
                    + (parent.info.downlink, parent.info.proc_link)
                )
                kind = "internal"
            else:
                path = (
                    (vertex.info.uplink,)
                    + _frozen_lane_links(vertex.lane_to_parent)
                    + (f"{tree.master_tor}->{job.master}",)
                )
                kind = "result"
            specs.append(FlowSpec(
                flow_id=f"{prefix}:b:{box_id}",
                size=out_bytes,
                path=path,
                start_time=job.start_time,
                job_id=job.job_id,
                kind=kind,
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


# ---------------------------------------------------------------------------
# Frozen copy: the injector's reroutes


class _FrozenRerouter:
    def __init__(self, topo: Topology, schedule: FaultSchedule) -> None:
        self._topo = topo
        self._schedule = schedule
        self._known_boxes = {info.box_id for info in topo.all_boxes()}

    def fault_view(self, job):
        return self._schedule.crashed_at(job.start_time) & self._known_boxes

    def reroute_events(
        self,
        workload,
        path_now: Dict[str, Tuple[str, ...]],
    ) -> List[Tuple[float, str, Tuple[str, ...]]]:
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
            down = self.fault_view(job)
            trees = [_frozen_rewire_out(tree, down)
                     for tree in builder.build_many(
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
                    trees[i] = _frozen_rewire_failed_box(tree, box)
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
        rewired = _frozen_rewire_failed_box(tree, box)
        prefix = f"{job.job_id}:t{tree.tree_index}"
        info = vertex.info
        dead_links = {info.downlink, info.uplink, info.proc_link}
        master_edge = make_link_id(tree.master_tor, job.master)

        def touched(flow_id: str) -> bool:
            path = path_now.get(flow_id)
            return path is not None and any(l in dead_links for l in path)

        def into(tree_after: AggregationTree,
                 parent: Optional[str]) -> Tuple[str, ...]:
            if parent is None:
                return (master_edge,)
            pinfo = tree_after.boxes[parent].info
            return (pinfo.downlink, pinfo.proc_link)

        out: List[Tuple[float, str, Tuple[str, ...]]] = []

        for w in vertex.direct_workers:
            flow_id = f"{prefix}:w{w}"
            if not touched(flow_id):
                continue
            host = job.workers[w][0]
            lane = rewired.worker_lane[w]
            path = _frozen_lane_links((host,) + lane) \
                + into(rewired, rewired.worker_entry[w])
            out.append((crash_time, flow_id, path))

        flow_id = f"{prefix}:b:{box}"
        if touched(flow_id):
            path = _frozen_lane_links(vertex.lane_to_parent) \
                + into(tree, vertex.parent)
            out.append((crash_time, flow_id, path))

        for child in vertex.children:
            flow_id = f"{prefix}:b:{child}"
            if not touched(flow_id):
                continue
            cvert = rewired.boxes[child]
            path = (cvert.info.uplink,) \
                + _frozen_lane_links(cvert.lane_to_parent) \
                + into(rewired, cvert.parent)
            out.append((crash_time, flow_id, path))
        return out


# ---------------------------------------------------------------------------
# Frozen copy: the platform's tree building


def _frozen_build_trees(builder: TreeBuilder, failed, key: str, master: str,
                        worker_hosts: Sequence[str],
                        n_trees: int = 1) -> List[AggregationTree]:
    return [_frozen_rewire_out(tree, failed) for tree in
            builder.build_many(key, master, worker_hosts, n_trees)]


# ---------------------------------------------------------------------------
# Inputs


@st.composite
def _topologies(draw) -> Topology:
    topo = three_tier(QUICK_TOPO)
    if draw(st.booleans()):
        deploy_boxes(topo, boxes_per_switch=draw(st.integers(1, 2)))
    else:
        tiers = draw(st.sampled_from([(TOR,), (AGGR,), (CORE,),
                                      (AGGR, CORE), (TOR, AGGR, CORE)]))
        deploy_box_budget(topo, budget=draw(st.integers(1, 16)), tiers=tiers)
    return topo


@st.composite
def _jobs(draw, hosts: Sequence[str], index: int) -> AggJob:
    master = draw(st.sampled_from(hosts))
    others = [h for h in hosts if h != master]
    workers = draw(st.lists(st.sampled_from(others), min_size=1,
                            max_size=10, unique=True))
    sizes = draw(st.lists(st.integers(1, 10 ** 6), min_size=len(workers),
                          max_size=len(workers)))
    # Delays on both sides of the 0.2 s bypass threshold.
    delays = draw(st.one_of(
        st.just(()),
        st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5]),
                 min_size=len(workers), max_size=len(workers)).map(tuple)))
    return AggJob(
        job_id=f"job{index}",
        master=master,
        workers=tuple(zip(workers, map(float, sizes))),
        alpha=draw(st.sampled_from([0.1, 0.5, 1.0])),
        start_time=draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])),
        worker_delays=delays,
        n_trees=draw(st.integers(1, 3)),
    )


@st.composite
def _cases(draw):
    """A topology, a workload on it and a crash schedule over its boxes:
    permanent crashes (several can hit one job: cascades) and crashes
    that a later recover undoes."""
    topo = draw(_topologies())
    hosts = sorted(topo.hosts())
    jobs = [draw(_jobs(hosts, i)) for i in range(draw(st.integers(1, 4)))]
    boxes = sorted(info.box_id for info in topo.all_boxes())
    crashed = draw(st.lists(st.sampled_from(boxes), max_size=len(boxes),
                            unique=True))
    times = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 2.5]
    events = []
    for box in crashed:
        at = draw(st.sampled_from(times))
        events.append(FaultEvent(at, BOX_CRASH, box))
        if draw(st.integers(0, 3)) == 0:
            events.append(FaultEvent(at + 0.1, BOX_RECOVER, box))
    return topo, Workload(jobs=jobs), FaultSchedule(events)


def _same_specs(live: List[FlowSpec], frozen: List[FlowSpec]) -> None:
    assert [s.flow_id for s in live] == [s.flow_id for s in frozen]
    for a, b in zip(live, frozen):
        for f in fields(FlowSpec):
            assert getattr(a, f.name) == getattr(b, f.name), \
                (a.flow_id, f.name)


def _tree_state(tree: AggregationTree):
    return (tree.key, tree.tree_index, tree.master, tree.master_tor,
            tree.worker_entry, tree.worker_lane,
            {box_id: (v.info, v.parent, v.lane_to_parent, v.children,
                      v.direct_workers)
             for box_id, v in tree.boxes.items()},
            list(tree.boxes))


# ---------------------------------------------------------------------------
# Properties


class TestPlanningMatchesFrozen:
    @given(_cases())
    @settings(max_examples=120, deadline=None)
    def test_strategy_plan(self, case):
        topo, workload, schedule = case
        injector = SimFaultInjector(topo, schedule)
        _same_specs(NetAggStrategy().plan(workload, topo),
                    _FrozenNetAggStrategy().plan(workload, topo))
        _same_specs(
            NetAggStrategy(fault_view=injector.fault_view).plan(
                workload, topo),
            _FrozenNetAggStrategy(fault_view=injector.fault_view).plan(
                workload, topo))

    @given(_cases())
    @settings(max_examples=120, deadline=None)
    def test_injector_reroute_events(self, case):
        topo, workload, schedule = case
        live = SimFaultInjector(topo, schedule)
        specs = NetAggStrategy(fault_view=live.fault_view).plan(
            workload, topo)
        live_paths = {s.flow_id: s.path for s in specs}
        frozen_paths = dict(live_paths)
        assert live.reroute_events(workload, live_paths) == \
            _FrozenRerouter(topo, schedule).reroute_events(
                workload, frozen_paths)
        assert live_paths == frozen_paths

    @given(_cases(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_platform_build_trees(self, case, data):
        topo, workload, schedule = case
        platform = NetAggPlatform(topo)
        failed = sorted(schedule.permanent_crashes())
        for box_id in failed:
            platform.fail_box(box_id)
        builder = TreeBuilder(topo)
        for job in workload.jobs:
            hosts = [h for h, _ in job.workers]
            live = platform.build_trees(job.job_id, job.master, hosts,
                                        job.n_trees)
            frozen = _frozen_build_trees(builder, set(failed), job.job_id,
                                         job.master, hosts, job.n_trees)
            assert [_tree_state(t) for t in live] == \
                [_tree_state(t) for t in frozen]


def test_the_draws_reach_every_reroute():
    """Fixed inputs in the drawn space on which the injector moves all
    three kinds of flow -- a dead box's workers, its own segment and its
    child boxes' segments -- for root and inner boxes, and moves one
    flow twice (a cascade); the frozen copy agrees on each."""
    topo = three_tier(QUICK_TOPO)
    deploy_boxes(topo)
    job = AggJob(job_id="job0", master="host:0",
                 workers=tuple((f"host:{h}", 1000.0)
                               for h in (1, 9, 17, 25, 26)),
                 alpha=0.1, n_trees=2)
    workload = Workload(jobs=[job])
    tree = TreeBuilder(topo).build("job0", "host:0",
                                   [h for h, _ in job.workers])
    root = tree.roots()[0]
    inner = next(b for b, v in tree.boxes.items()
                 if v.parent is not None and v.children)
    leaf = next(b for b, v in tree.boxes.items() if not v.children)
    schedule = FaultSchedule([FaultEvent(0.5, BOX_CRASH, root),
                              FaultEvent(0.75, BOX_CRASH, inner),
                              FaultEvent(1.0, BOX_CRASH, leaf)])
    injector = SimFaultInjector(topo, schedule)
    specs = NetAggStrategy().plan(workload, topo)
    live_paths = {s.flow_id: s.path for s in specs}
    frozen_paths = dict(live_paths)
    events = injector.reroute_events(workload, live_paths)
    assert events == _FrozenRerouter(topo, schedule).reroute_events(
        workload, frozen_paths)
    moved = [flow_id for _, flow_id, _ in events]
    assert any(":w" in f for f in moved)
    assert f"job0:t0:b:{root}" in moved and f"job0:t0:b:{inner}" in moved
    assert any(":b:" in f and not f.endswith((root, inner, leaf))
               for f in moved)
    assert len(moved) > len(set(moved))
