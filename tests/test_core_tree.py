"""Tests for distributed aggregation-tree construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import deploy_boxes
from repro.core.failure import rewire_failed_box, rewire_out
from repro.core.tree import (
    AggregationTree,
    BoxVertex,
    TreeBuilder,
    TreeConstructionError,
)
from repro.netsim.routing import stable_hash
from repro.topology import ThreeTierParams, fat_tree, three_tier
from repro.topology.base import AGGR, CORE, TOR, Node
from repro.units import Gbps

SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=4
)


def topo_with_boxes(tiers=(TOR, AGGR, CORE), boxes_per_switch=1):
    topo = three_tier(SMALL)
    deploy_boxes(topo, tiers=tiers, boxes_per_switch=boxes_per_switch)
    return topo


CROSS_POD_WORKERS = ["host:4", "host:5", "host:8", "host:12"]


class TestBuild:
    def test_every_worker_has_entry(self):
        builder = TreeBuilder(topo_with_boxes())
        tree = builder.build("job", "host:0", CROSS_POD_WORKERS)
        assert set(tree.worker_entry) == set(range(4))
        assert all(entry is not None for entry in tree.worker_entry.values())

    def test_single_root_reaches_master_tor(self):
        builder = TreeBuilder(topo_with_boxes())
        tree = builder.build("job", "host:0", CROSS_POD_WORKERS)
        roots = tree.roots()
        assert len(roots) == 1
        root = tree.boxes[roots[0]]
        assert root.lane_to_parent[-1] == tree.master_tor

    def test_tree_is_connected(self):
        builder = TreeBuilder(topo_with_boxes())
        tree = builder.build("job", "host:0", CROSS_POD_WORKERS)
        reachable = set()
        frontier = tree.roots()
        while frontier:
            box_id = frontier.pop()
            reachable.add(box_id)
            frontier.extend(tree.boxes[box_id].children)
        assert reachable == set(tree.boxes)

    def test_parent_child_symmetry(self):
        builder = TreeBuilder(topo_with_boxes())
        tree = builder.build("job", "host:0", CROSS_POD_WORKERS)
        for box_id, vertex in tree.boxes.items():
            for child in vertex.children:
                assert tree.boxes[child].parent == box_id
            if vertex.parent is not None:
                assert box_id in tree.boxes[vertex.parent].children

    def test_same_rack_worker_enters_master_tor_box(self):
        builder = TreeBuilder(topo_with_boxes())
        tree = builder.build("job", "host:0", ["host:1"])
        entry = tree.worker_entry[0]
        assert entry is not None
        assert tree.boxes[entry].info.switch_id == "tor:0"

    def test_depth_reflects_tiers(self):
        builder = TreeBuilder(topo_with_boxes())
        tree = builder.build("job", "host:0", CROSS_POD_WORKERS)
        # A cross-pod worker's entry box (its ToR) is 5 hops from master:
        # tor -> aggr -> core -> aggr -> tor.
        entry = tree.worker_entry[3]  # host:12, pod 1
        assert tree.depth_of(entry) == 5

    def test_master_as_worker_rejected(self):
        builder = TreeBuilder(topo_with_boxes())
        with pytest.raises(ValueError):
            builder.build("job", "host:0", ["host:0"])

    def test_deterministic(self):
        builder = TreeBuilder(topo_with_boxes())
        t1 = builder.build("job", "host:0", CROSS_POD_WORKERS)
        t2 = builder.build("job", "host:0", CROSS_POD_WORKERS)
        assert t1.worker_entry == t2.worker_entry
        assert set(t1.boxes) == set(t2.boxes)


class TestPartialDeployments:
    def test_no_boxes_all_direct(self):
        builder = TreeBuilder(three_tier(SMALL))
        tree = builder.build("job", "host:0", CROSS_POD_WORKERS)
        assert tree.direct_workers() == [0, 1, 2, 3]
        assert not tree.boxes

    def test_core_only_splits_workers(self):
        builder = TreeBuilder(topo_with_boxes(tiers=(CORE,)))
        tree = builder.build("job", "host:0", CROSS_POD_WORKERS)
        # Pod-0 workers (hosts 4,5) never cross a core: direct.
        assert 0 in tree.direct_workers()
        assert 1 in tree.direct_workers()
        # Pod-1 workers aggregate at the core box.
        assert tree.worker_entry[2] is not None
        assert tree.worker_entry[3] is not None

    def test_aggr_only_skips_core_in_lane(self):
        builder = TreeBuilder(topo_with_boxes(tiers=(AGGR,)))
        tree = builder.build("job", "host:0", CROSS_POD_WORKERS)
        entry = tree.worker_entry[3]
        vertex = tree.boxes[entry]
        # Lane from the pod-1 aggr box to its parent passes the core
        # switch without aggregation there.
        assert vertex.parent is not None
        assert any(lane.startswith("core:")
                   for lane in vertex.lane_to_parent)


class TestMultipleTrees:
    def test_disjoint_lanes_when_possible(self):
        builder = TreeBuilder(topo_with_boxes())
        trees = builder.build_many("job", "host:0", CROSS_POD_WORKERS, 4)
        cores = {
            builder.core("job", t.tree_index) for t in trees
        }
        # 2 cores, 4 trees: both cores must be exercised.
        assert len(cores) == 2

    def test_n_trees_validation(self):
        builder = TreeBuilder(topo_with_boxes())
        with pytest.raises(ValueError):
            builder.build_many("job", "host:0", CROSS_POD_WORKERS, 0)


class TestScaleOut:
    def test_box_choice_balances(self):
        builder = TreeBuilder(topo_with_boxes(boxes_per_switch=4))
        chosen = {
            builder.box_id(f"job{i}", 0, "core:0") for i in range(32)
        }
        assert len(chosen) > 1


class TestScaleOutTrees:
    def test_trees_use_distinct_boxes_on_same_switch(self):
        """An application's trees round-robin over a switch's boxes --
        the mechanism behind Fig. 13's scale-out."""
        builder = TreeBuilder(topo_with_boxes(boxes_per_switch=4))
        for switch in ("core:0", "tor:0", "aggr:0:0"):
            chosen = {
                builder.box_id("job", t, switch) for t in range(4)
            }
            assert len(chosen) == 4


# -- differential oracle: frozen selection vs the live builder ---------------
#
# ``_FrozenTreeBuilder`` is the lane/box selection exactly as it stood
# before the topology grew a structural index: every choice re-derived
# per worker per hop from full scans of the node table.  It is kept here
# as the reference the live builder must match tree for tree.

class _FrozenTreeBuilder:
    def __init__(self, topo):
        self._topo = topo

    def build(self, key, master, worker_hosts, tree_index=0):
        topo = self._topo
        master_tor = topo.tor_of(master)
        master_pod = topo.pod_of(master)
        tree = AggregationTree(
            key=key, tree_index=tree_index, master=master,
            master_tor=master_tor, worker_entry={}, worker_lane={}, boxes={},
        )
        for index, host in enumerate(worker_hosts):
            if host == master:
                raise ValueError(
                    f"master {host!r} cannot also be a worker ({key})"
                )
            lane = self.lane(key, tree_index, host, master_tor, master_pod)
            on_path = [s for s in lane if topo.boxes_at(s)]
            if not on_path:
                tree.worker_entry[index] = None
                tree.worker_lane[index] = tuple(lane)
                continue
            self._register_boxes(tree, key, tree_index, lane, on_path)
            entry_id = self.box_id(key, tree_index, on_path[0])
            tree.worker_entry[index] = entry_id
            tree.worker_lane[index] = tuple(
                lane[: lane.index(on_path[0]) + 1]
            )
            tree.boxes[entry_id].direct_workers.append(index)
        return tree

    def build_many(self, key, master, worker_hosts, n_trees):
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        return [self.build(key, master, worker_hosts, tree_index=t)
                for t in range(n_trees)]

    def lane(self, key, tree_index, host, master_tor, master_pod):
        topo = self._topo
        tor = topo.tor_of(host)
        if tor == master_tor:
            return [master_tor]
        pod = topo.pod_of(host)
        if pod == master_pod:
            return [tor, self.pod_aggr(key, tree_index, pod), master_tor]
        return [
            tor,
            self.pod_aggr(key, tree_index, pod),
            self.core(key, tree_index),
            self.pod_aggr(key, tree_index, master_pod),
            master_tor,
        ]

    def pod_aggr(self, key, tree_index, pod):
        aggrs = sorted(
            a for a in self._topo.switches(AGGR)
            if self._topo.pod_of(a) == pod
        )
        if not aggrs:
            raise ValueError(f"pod {pod} has no aggregation switch")
        return aggrs[self._lane_position(key, tree_index) % len(aggrs)]

    def core(self, key, tree_index):
        topo = self._topo
        pods = sorted({topo.pod_of(a) for a in topo.switches(AGGR)})
        candidates = None
        for pod in pods:
            aggr = self.pod_aggr(key, tree_index, pod)
            adjacent = {
                n for n in topo.neighbors(aggr)
                if topo.node(n).tier == CORE
            }
            candidates = adjacent if candidates is None \
                else candidates & adjacent
        cores = sorted(candidates or ())
        if not cores:
            raise ValueError(
                "no core switch is reachable from every pod's chosen "
                "aggregation switch"
            )
        base = stable_hash(f"{key}:core")
        return cores[(base + tree_index) % len(cores)]

    def _lane_position(self, key, tree_index):
        return stable_hash(f"{key}:lane") + tree_index

    def box_id(self, key, tree_index, switch):
        candidates = self._topo.boxes_at(switch)
        if not candidates:
            raise ValueError(f"switch {switch!r} has no agg boxes")
        base = stable_hash(f"{key}:box:{switch}")
        return candidates[(base + tree_index) % len(candidates)].box_id

    def _register_boxes(self, tree, key, tree_index, lane, on_path):
        for i, switch in enumerate(on_path):
            vertex = self._vertex(tree, key, tree_index, switch)
            if i + 1 < len(on_path):
                parent_switch = on_path[i + 1]
                parent = self._vertex(tree, key, tree_index, parent_switch)
                lane_between = _frozen_lane_slice(lane, switch, parent_switch)
                self._set_parent(vertex, parent.info.box_id, lane_between)
                if vertex.info.box_id not in parent.children:
                    parent.children.append(vertex.info.box_id)
            else:
                tail = _frozen_lane_slice(lane, switch, lane[-1])
                self._set_parent(vertex, None, tail)

    def _vertex(self, tree, key, tree_index, switch):
        box_id = self.box_id(key, tree_index, switch)
        vertex = tree.boxes.get(box_id)
        if vertex is None:
            vertex = BoxVertex(info=self._topo.box(box_id))
            tree.boxes[box_id] = vertex
        return vertex

    @staticmethod
    def _set_parent(vertex, parent, lane_between):
        if vertex.lane_to_parent and \
                (vertex.parent, vertex.lane_to_parent) != (parent, lane_between):
            raise TreeConstructionError(
                f"inconsistent parent for box {vertex.info.box_id}: "
                f"{vertex.parent} vs {parent}"
            )
        vertex.parent = parent
        vertex.lane_to_parent = lane_between


def _frozen_lane_slice(lane, src, dst):
    start = lane.index(src)
    end = lane.index(dst)
    if end < start:
        raise TreeConstructionError(f"lane runs backwards: {src} -> {dst}")
    return tuple(lane[start:end + 1])


def _outcome(call, *args):
    """The call's result, or the ``ValueError`` it raised, as a value."""
    try:
        return call(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _same_trees(live, frozen):
    """Equal dataclasses *and* equal dict insertion orders: the platform
    announces to, and probes, ``tree.boxes`` in iteration order."""
    assert live == frozen
    for a, b in zip(live, frozen):
        assert list(a.boxes) == list(b.boxes)
        assert list(a.worker_entry) == list(b.worker_entry)
        assert list(a.worker_lane) == list(b.worker_lane)


@st.composite
def _deployments(draw):
    """A topology with a partial, uneven box deployment."""
    if draw(st.booleans()):
        topo = fat_tree(draw(st.sampled_from([2, 4, 6])))
    else:
        topo = three_tier(ThreeTierParams(
            n_pods=draw(st.integers(1, 3)),
            tors_per_pod=draw(st.integers(1, 3)),
            aggrs_per_pod=draw(st.integers(1, 3)),
            n_cores=draw(st.integers(1, 3)),
            hosts_per_tor=draw(st.integers(2, 4)),
        ))
    for tier in (TOR, AGGR, CORE):
        for switch in topo.switches(tier):
            count = draw(st.sampled_from([0, 0, 1, 1, 2, 3]))
            if count:
                topo.attach_aggbox(switch, link_rate=Gbps(10.0),
                                   proc_rate=Gbps(9.2), count=count)
    return topo


@st.composite
def _jobs(draw):
    """(topology, key, master, workers, n_trees): the master and its
    workers spread over same rack / same pod / other pods as the draw
    falls -- ``test_all_three_lane_shapes_are_drawn`` pins that all
    three occur."""
    topo = draw(_deployments())
    hosts = sorted(topo.hosts())
    master = draw(st.sampled_from(hosts))
    others = [h for h in hosts if h != master]
    workers = draw(st.lists(st.sampled_from(others), min_size=1,
                            max_size=min(10, len(others)), unique=True))
    key = draw(st.text(max_size=12))
    return topo, key, master, workers, draw(st.integers(1, 4))


class TestLiveBuilderMatchesFrozenSelection:
    @given(_jobs())
    @settings(max_examples=150)
    def test_build_many(self, job):
        topo, key, master, workers, n_trees = job
        live = TreeBuilder(topo).build_many(key, master, workers, n_trees)
        frozen = _FrozenTreeBuilder(topo).build_many(key, master, workers,
                                                     n_trees)
        _same_trees(live, frozen)

    @given(_jobs())
    @settings(max_examples=60)
    def test_public_selection_methods(self, job):
        """``lane``/``pod_aggr``/``core``/``box_id`` are called directly
        by the strategies and experiments: same answers, same errors."""
        topo, key, master, workers, n_trees = job
        live, frozen = TreeBuilder(topo), _FrozenTreeBuilder(topo)
        master_tor, master_pod = topo.tor_of(master), topo.pod_of(master)

        def both(name, *args):
            assert _outcome(getattr(live, name), *args) == \
                _outcome(getattr(frozen, name), *args), (name, args)

        for t in range(n_trees):
            both("core", key, t)
            for pod in sorted({topo.pod_of(h) for h in topo.hosts()}):
                both("pod_aggr", key, t, pod)
            both("pod_aggr", key, t, 99)
            for host in workers:
                both("lane", key, t, host, master_tor, master_pod)
            for tier in (TOR, AGGR, CORE):
                for switch in topo.switches(tier):
                    both("box_id", key, t, switch)

    def test_all_three_lane_shapes_are_drawn(self):
        topo = topo_with_boxes()
        live, frozen = TreeBuilder(topo), _FrozenTreeBuilder(topo)
        # host:0's rack is hosts 0-3, its pod hosts 0-7.
        workers = ["host:1", "host:5", "host:9", "host:2", "host:14"]
        for key in ("a", "b", "req-17"):
            a = live.build_many(key, "host:0", workers, 3)
            _same_trees(a, frozen.build_many(key, "host:0", workers, 3))
            assert {len(lane) for lane in (
                live.lane(key, 0, h, "tor:0", 0) for h in workers
            )} == {1, 3, 5}

    def test_master_as_worker_and_bad_n_trees_agree(self):
        topo = topo_with_boxes()
        for builder in (TreeBuilder(topo), _FrozenTreeBuilder(topo)):
            with pytest.raises(ValueError, match="cannot also be a worker"):
                builder.build("job", "host:0", ["host:1", "host:0"])
            with pytest.raises(ValueError, match="n_trees"):
                builder.build_many("job", "host:0", ["host:1"], 0)


def _frozen_rewire_loop(tree, avoid):
    """The plan-time rewiring loop as ``NetAggPlatform.build_trees``,
    ``NetAggStrategy.plan_job``, ``SimFaultInjector.reroute_events`` and
    ``SelfHealController.view`` each spelled it before ``rewire_out``."""
    for box_id in sorted(avoid):
        if box_id in tree.boxes:
            tree = rewire_failed_box(tree, box_id)
    return tree


@st.composite
def _trees_and_victims(draw):
    """One built tree, and box ids to take out of it in drawn order:
    some it holds, some (``box:ghost:<n>``) it does not."""
    topo, key, master, workers, n_trees = draw(_jobs())
    tree = TreeBuilder(topo).build(key, master, workers,
                                   draw(st.integers(0, n_trees - 1)))
    pool = sorted(tree.boxes) + ["box:ghost:0", "box:ghost:1"]
    return tree, draw(st.lists(st.sampled_from(pool), unique=True))


class TestRewireOutAndFanIn:
    @given(_trees_and_victims())
    @settings(max_examples=150)
    def test_rewire_out_is_the_sorted_fold(self, case):
        """Whatever order or container the caller's fault view comes
        in, the result is the sorted, skip-what-is-absent fold."""
        tree, victims = case
        want = _frozen_rewire_loop(tree, set(victims))
        for avoid in (victims, victims[::-1], set(victims),
                      frozenset(victims), tuple(victims) * 2,
                      iter(victims)):
            _same_trees([rewire_out(tree, avoid)], [want])
        assert not set(victims) & set(want.boxes)
        if not set(victims) & set(tree.boxes):
            assert rewire_out(tree, victims) is tree

    @given(_trees_and_victims(), st.data())
    @settings(max_examples=150)
    def test_fan_in_counts_every_live_edge_once(self, case, data):
        tree, victims = case
        tree = rewire_out(tree, victims)
        excluded = data.draw(st.sets(st.sampled_from(
            sorted(tree.worker_entry))))
        # dict, set and the default all mean "these workers are silent".
        for silent in (excluded, dict.fromkeys(excluded, "rack:0")):
            assert sum(tree.fan_in(b, silent) for b in tree.boxes) == (
                sum(1 for w, entry in tree.worker_entry.items()
                    if entry is not None and w not in excluded)
                + sum(1 for v in tree.boxes.values()
                      if v.parent is not None))
        for box_id, vertex in tree.boxes.items():
            assert tree.fan_in(box_id) == \
                len(vertex.direct_workers) + len(vertex.children)

    def test_request_key_names_the_tree(self):
        trees = TreeBuilder(topo_with_boxes()).build_many(
            "job", "host:0", CROSS_POD_WORKERS, 2)
        assert [t.request_key("req-7") for t in trees] == \
            ["req-7@t0", "req-7@t1"]


class TestBuilderSeesTopologyMutations:
    """A builder outlives deployment changes (``NetAggPlatform`` keeps
    one for its lifetime): whatever the topology derives must be dropped
    when the topology changes."""

    def test_attach_aggbox_on_a_lane_switch(self):
        topo = topo_with_boxes(tiers=(TOR,))
        live, frozen = TreeBuilder(topo), _FrozenTreeBuilder(topo)
        before = live.build("job", "host:0", CROSS_POD_WORKERS)
        _same_trees([before],
                    [frozen.build("job", "host:0", CROSS_POD_WORKERS)])
        lane = live.lane("job", 0, "host:12", "tor:0", 0)
        aggr = lane[1]
        assert not topo.boxes_at(aggr)
        topo.attach_aggbox(aggr, link_rate=Gbps(10.0), proc_rate=Gbps(9.2))
        after = live.build("job", "host:0", CROSS_POD_WORKERS)
        _same_trees([after],
                    [frozen.build("job", "host:0", CROSS_POD_WORKERS)])
        assert f"box:{aggr}:0" in after.boxes
        assert f"box:{aggr}:0" not in before.boxes
        # ... and a second box on the same switch joins the rotation.
        topo.attach_aggbox(aggr, link_rate=Gbps(10.0), proc_rate=Gbps(9.2))
        assert {live.box_id("job", t, aggr) for t in range(2)} == \
            {f"box:{aggr}:0", f"box:{aggr}:1"}

    def test_add_node_and_connect_a_new_aggregation_switch(self):
        topo = topo_with_boxes()
        live, frozen = TreeBuilder(topo), _FrozenTreeBuilder(topo)
        keys = [f"job{i}" for i in range(12)]
        for key in keys:
            _same_trees(
                live.build_many(key, "host:0", CROSS_POD_WORKERS, 2),
                frozen.build_many(key, "host:0", CROSS_POD_WORKERS, 2))
        # A third aggregation switch in every pod ...
        for pod in (0, 1):
            topo.add_node(Node(f"aggr:{pod}:2", AGGR, pod=pod))
        # ... which no core reaches yet: asked now, the answer for the
        # new position is "no core", and must not survive the wiring.
        unwired = [_outcome(live.core, key, 0) for key in keys]
        assert unwired == [_outcome(frozen.core, key, 0) for key in keys]
        assert any(isinstance(answer, tuple) for answer in unwired)
        for pod in (0, 1):
            new = f"aggr:{pod}:2"
            for core in topo.switches(CORE):
                topo.connect(new, core, Gbps(1.0))
            for tor in topo.switches(TOR):
                if topo.pod_of(tor) == pod:
                    topo.connect(tor, new, Gbps(1.0))
        used = set()
        for key in keys:
            trees = live.build_many(key, "host:0", CROSS_POD_WORKERS, 2)
            _same_trees(
                trees, frozen.build_many(key, "host:0", CROSS_POD_WORKERS, 2))
            used.update(live.pod_aggr(key, t, 1) for t in range(2))
        assert "aggr:1:2" in used

    def test_add_node_alone_is_seen(self):
        """``add_node`` without a ``connect``: the new switch is listed
        at once (an unwired aggregation switch has no core, so a lane
        through it must fail exactly as the frozen selection does)."""
        topo = topo_with_boxes()
        live, frozen = TreeBuilder(topo), _FrozenTreeBuilder(topo)
        live.build("job", "host:0", CROSS_POD_WORKERS)
        assert len(topo.switches(AGGR)) == 4
        topo.add_node(Node("aggr:1:2", AGGR, pod=1))
        assert len(topo.switches(AGGR)) == 5
        picks = set()
        for key in (f"job{i}" for i in range(12)):
            assert _outcome(live.core, key, 0) == _outcome(frozen.core, key, 0)
            picks.add(live.pod_aggr(key, 0, 1))
            assert live.pod_aggr(key, 0, 1) == frozen.pod_aggr(key, 0, 1)
        assert "aggr:1:2" in picks
