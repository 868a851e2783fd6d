"""Tests for topology builders and path enumeration."""

from collections import deque

import pytest

from repro.netsim.routing import EcmpRouter
from repro.topology import ThreeTierParams, fat_tree, three_tier
from repro.topology.base import (
    AGGBOX,
    AGGR,
    CORE,
    HOST,
    TOR,
    Node,
    Topology,
)
from repro.topology.threetier import attach_boxes_everywhere
from repro.units import Gbps

SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=4
)


class TestThreeTierStructure:
    def test_counts(self):
        topo = three_tier(SMALL)
        assert len(topo.hosts()) == SMALL.n_hosts == 16
        assert len(topo.switches(TOR)) == 4
        assert len(topo.switches(AGGR)) == 4
        assert len(topo.switches(CORE)) == 2

    def test_default_is_paper_scale(self):
        params = ThreeTierParams()
        assert params.n_hosts == 1024
        assert params.n_tors == 64

    def test_host_edge_capacity(self):
        topo = three_tier(SMALL)
        link = topo.network.link("host:0->tor:0")
        assert link.capacity == SMALL.edge_rate

    def test_oversubscription_shapes_uplinks(self):
        params = SMALL.scaled(oversubscription=2.0)
        topo = three_tier(params)
        uplink = topo.network.link("tor:0->aggr:0:0")
        total_up = uplink.capacity * params.aggrs_per_pod
        total_down = params.hosts_per_tor * params.edge_rate
        assert total_down / total_up == pytest.approx(2.0)

    def test_full_bisection_at_one(self):
        params = SMALL.scaled(oversubscription=1.0)
        topo = three_tier(params)
        uplink = topo.network.link("tor:0->aggr:0:0")
        assert uplink.capacity * params.aggrs_per_pod == pytest.approx(
            params.hosts_per_tor * params.edge_rate
        )

    def test_rack_and_pod_attributes(self):
        topo = three_tier(SMALL)
        assert topo.rack_of("host:0") == 0
        assert topo.rack_of("host:4") == 1
        assert topo.pod_of("host:0") == 0
        assert topo.pod_of("host:8") == 1
        assert topo.tor_of("host:5") == "tor:1"

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ThreeTierParams(n_pods=0)
        with pytest.raises(ValueError):
            ThreeTierParams(oversubscription=0.5)
        with pytest.raises(ValueError):
            ThreeTierParams(edge_rate=-1.0)


class TestPaths:
    def test_same_rack_single_path(self):
        topo = three_tier(SMALL)
        paths = topo.equal_cost_paths("host:0", "host:1")
        assert paths == (("host:0->tor:0", "tor:0->host:1"),)

    def test_same_pod_paths_via_each_aggr(self):
        topo = three_tier(SMALL)
        paths = topo.equal_cost_paths("host:0", "host:4")
        assert len(paths) == SMALL.aggrs_per_pod

    def test_cross_pod_path_count(self):
        topo = three_tier(SMALL)
        paths = topo.equal_cost_paths("host:0", "host:15")
        # aggrs_per_pod * n_cores * aggrs_per_pod lanes.
        assert len(paths) == 2 * 2 * 2
        assert all(len(p) == 6 for p in paths)

    def test_self_path_is_empty(self):
        topo = three_tier(SMALL)
        assert topo.equal_cost_paths("host:0", "host:0") == ((),)

    def test_paths_never_relay_through_hosts(self):
        topo = three_tier(SMALL)
        for path in topo.equal_cost_paths("host:0", "host:15"):
            for link in path[1:-1]:
                assert "host" not in link

    def test_unknown_endpoint_raises(self):
        topo = three_tier(SMALL)
        with pytest.raises(KeyError):
            topo.equal_cost_paths("host:0", "host:999")

    def test_ecmp_choice_is_deterministic(self):
        topo = three_tier(SMALL)
        router = EcmpRouter()
        paths = topo.equal_cost_paths("host:0", "host:15")
        assert router.choose(paths, "flow-1") == router.choose(paths, "flow-1")

    def test_ecmp_spreads_flows(self):
        topo = three_tier(SMALL)
        router = EcmpRouter()
        paths = topo.equal_cost_paths("host:0", "host:15")
        chosen = {router.choose(paths, f"flow-{i}") for i in range(64)}
        assert len(chosen) > 1


class TestAggBoxes:
    def test_attach_creates_links_and_proc(self):
        topo = three_tier(SMALL)
        (info,) = topo.attach_aggbox("tor:0", link_rate=Gbps(10),
                                     proc_rate=Gbps(9.2))
        assert topo.network.link(info.proc_link).virtual
        assert topo.network.link(info.uplink).capacity == Gbps(10)
        assert topo.boxes_at("tor:0") == [info]
        assert topo.box(info.box_id) == info

    def test_multiple_boxes_per_switch(self):
        topo = three_tier(SMALL)
        topo.attach_aggbox("tor:0", link_rate=1.0, proc_rate=1.0, count=2)
        topo.attach_aggbox("tor:0", link_rate=1.0, proc_rate=1.0, count=1)
        assert len(topo.boxes_at("tor:0")) == 3
        ids = {b.box_id for b in topo.boxes_at("tor:0")}
        assert len(ids) == 3

    def test_attach_to_host_rejected(self):
        topo = three_tier(SMALL)
        with pytest.raises(ValueError):
            topo.attach_aggbox("host:0", link_rate=1.0, proc_rate=1.0)

    def test_attach_everywhere(self):
        topo = three_tier(SMALL)
        attach_boxes_everywhere(topo)
        n_switches = 4 + 4 + 2
        assert len(topo.all_boxes()) == n_switches
        assert len(topo.switches_with_boxes()) == n_switches

    def test_path_to_box(self):
        topo = three_tier(SMALL)
        (info,) = topo.attach_aggbox("aggr:0:0", link_rate=1.0, proc_rate=1.0)
        paths = topo.equal_cost_paths("host:0", info.box_id)
        assert paths == ((
            "host:0->tor:0", "tor:0->aggr:0:0", f"aggr:0:0->{info.box_id}"
        ),)

    def test_boxes_never_relay(self):
        topo = three_tier(SMALL)
        attach_boxes_everywhere(topo)
        for path in topo.equal_cost_paths("host:0", "host:15"):
            assert not any("box" in link for link in path)


class TestFatTree:
    def test_k4_counts(self):
        topo = fat_tree(4)
        assert len(topo.hosts()) == 16
        assert len(topo.switches(TOR)) == 8
        assert len(topo.switches(AGGR)) == 8
        assert len(topo.switches(CORE)) == 4

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            fat_tree(3)

    def test_cross_pod_diversity(self):
        topo = fat_tree(4)
        paths = topo.equal_cost_paths("host:0", "host:15")
        assert len(paths) == 4  # (k/2)^2

    def test_full_bisection(self):
        # Every tier has equal aggregate capacity in a fat-tree.
        topo = fat_tree(4, link_rate=10.0)
        edge = sum(1 for l in topo.network.wire_links()
                   if l.link_id.startswith("host:"))
        core_in = sum(1 for l in topo.network.wire_links()
                      if l.dst.startswith("core:"))
        assert edge == core_in


class TestTopologyGuards:
    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node(Node("n", TOR))
        with pytest.raises(ValueError):
            topo.add_node(Node("n", TOR))

    def test_connect_unknown_node_rejected(self):
        topo = Topology()
        topo.add_node(Node("a", TOR))
        with pytest.raises(KeyError):
            topo.connect("a", "ghost", 1.0)

    def test_asymmetric_capacities(self):
        topo = Topology()
        topo.add_node(Node("a", TOR))
        topo.add_node(Node("b", TOR))
        topo.connect("a", "b", 5.0, capacity_ba=7.0)
        assert topo.network.link("a->b").capacity == 5.0
        assert topo.network.link("b->a").capacity == 7.0


# -- differential oracle: per-source BFS, frozen ------------------------------
#
# The path enumeration exactly as it stood when every source -- host,
# box or switch -- ran its own sweep of the relay graph.  Order matters
# as much as content: ``EcmpRouter`` hashes a flow onto an *index* into
# the returned paths.

def _frozen_source_bfs(topo, src):
    dist = {src: 0}
    preds = {src: []}
    order = [src]
    queue = deque([src])
    while queue:
        current = queue.popleft()
        for neighbor in topo.neighbors(current):
            if topo.node(neighbor).tier in (HOST, AGGBOX):
                continue
            if neighbor not in dist:
                dist[neighbor] = dist[current] + 1
                preds[neighbor] = [current]
                queue.append(neighbor)
                order.append(neighbor)
            elif dist[neighbor] == dist[current] + 1:
                preds[neighbor].append(current)
    return order, dist, preds


def _frozen_all_shortest(topo, src, dst):
    order, dist, preds = _frozen_source_bfs(topo, src)
    if dst in dist:
        dst_preds = preds[dst]
    else:
        adjacent = set(topo.neighbors(dst))
        best = None
        for node in order:
            if node in adjacent:
                best = dist[node]
                break
        if best is None:
            raise ValueError(f"no path from {src!r} to {dst!r}")
        dst_preds = [node for node in order
                     if node in adjacent and dist[node] == best]
    paths = []

    def unwind(node, acc):
        if node == src:
            paths.append([src] + acc)
            return
        for pred in (dst_preds if node == dst else preds[node]):
            unwind(pred, [node] + acc)

    unwind(dst, [])
    return paths


def _quick_three_tier_with_boxes():
    from repro.experiments.common import QUICK
    topo = three_tier(QUICK.topo)
    attach_boxes_everywhere(topo)
    return topo


def _fat_tree_with_boxes():
    topo = fat_tree(4)
    attach_boxes_everywhere(topo, count=2, tiers=(TOR, CORE))
    attach_boxes_everywhere(topo, tiers=(AGGR,))
    return topo


class TestPathsMatchFrozenPerSourceBfs:
    @pytest.mark.parametrize("build", [_quick_three_tier_with_boxes,
                                       _fat_tree_with_boxes])
    def test_every_ordered_pair(self, build):
        topo = build()
        endpoints = [n.node_id for n in topo.nodes()]
        assert {topo.node(e).tier for e in endpoints} == \
            {HOST, AGGBOX, TOR, AGGR, CORE}
        checked = 0
        for src in endpoints:
            for dst in endpoints:
                if src == dst:
                    continue
                expected = _frozen_all_shortest(topo, src, dst)
                assert topo.node_paths(src, dst) == expected, (src, dst)
                assert topo.equal_cost_paths(src, dst) == tuple(
                    tuple(f"{a}->{b}" for a, b in zip(nodes, nodes[1:]))
                    for nodes in expected
                ), (src, dst)
                checked += 1
        assert checked == len(endpoints) * (len(endpoints) - 1)

    def test_a_leaf_wired_after_the_first_query_is_routed(self):
        """Paths cached for a switch must not outlive a ``connect``."""
        topo = _quick_three_tier_with_boxes()
        before = topo.node_paths("host:0", "host:31")
        topo.add_node(Node("host:late", HOST, rack=3, pod=1))
        topo.connect("host:late", "tor:3", Gbps(1.0))
        assert topo.node_paths("host:0", "host:31") == before
        for src, dst in (("host:late", "host:0"), ("host:0", "host:late"),
                         ("host:late", "box:core:0:0")):
            assert topo.node_paths(src, dst) == \
                _frozen_all_shortest(topo, src, dst)

    def test_a_dual_homed_leaf_keeps_its_own_sweep(self):
        """Only single-homed leaves may borrow their switch's paths."""
        topo = _quick_three_tier_with_boxes()
        topo.add_node(Node("host:dual", HOST, rack=0, pod=0))
        topo.connect("host:dual", "tor:0", Gbps(1.0))
        topo.connect("host:dual", "tor:1", Gbps(1.0))
        for other in ("host:0", "host:9", "host:31", "tor:1", "core:0",
                      "box:aggr:1:0:0"):
            for src, dst in (("host:dual", other), (other, "host:dual")):
                expected = _frozen_all_shortest(topo, src, dst)
                assert topo.node_paths(src, dst) == expected
                assert len(topo.equal_cost_paths(src, dst)) == len(expected)

    def test_unreachable_and_unknown_endpoints(self):
        topo = three_tier(SMALL)
        topo.add_node(Node("host:island", HOST))
        with pytest.raises(ValueError, match="no path"):
            topo.node_paths("host:0", "host:island")
        with pytest.raises(ValueError, match="no path"):
            topo.equal_cost_paths("host:island", "host:0")
        with pytest.raises(KeyError):
            topo.node_paths("host:0", "host:nowhere")
