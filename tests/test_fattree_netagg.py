"""NetAgg on a fat-tree: lanes must respect the restricted core wiring
(aggregation switch j of every pod reaches only core group j)."""

from repro.aggregation import NetAggStrategy, RackLevelStrategy
from repro.core.tree import TreeBuilder
from tests.test_core_tree import LiveChoices
from repro.netsim import FlowSim
from repro.netsim.metrics import fct_summary
from repro.netsim.routing import EcmpRouter
from repro.topology import fat_tree
from repro.topology.base import AGGR, CORE, TOR
from repro.units import Gbps, MB
from repro.workload import AggJob


def make_topo(k=4):
    topo = fat_tree(k)
    for tier in (TOR, AGGR, CORE):
        for switch in topo.switches(tier):
            topo.attach_aggbox(switch, link_rate=Gbps(10.0),
                               proc_rate=Gbps(9.2))
    return topo


def cross_pod_job(topo, n_workers=6):
    hosts = sorted(topo.hosts(), key=lambda h: int(h.split(":")[1]))
    master = hosts[0]
    step = max(1, len(hosts) // (n_workers + 1))
    workers = tuple(
        (hosts[(i + 1) * step], 2 * MB) for i in range(n_workers)
    )
    return AggJob("ft-job", master, workers, alpha=0.1, n_trees=2)


class TestFatTreeLanes:
    def test_lanes_use_existing_links(self):
        """Every planned path must reference real links -- FlowSim
        validates on add, so a bad lane raises KeyError."""
        topo = make_topo()
        job = cross_pod_job(topo)
        specs = NetAggStrategy().plan_job(job, topo, EcmpRouter())
        sim = FlowSim(topo.network)
        sim.add_flows(specs)  # KeyError here would mean an invalid lane
        result = sim.run()
        assert len(result.records) == len(specs)

    def test_many_jobs_many_lanes(self):
        topo = make_topo()
        builder = TreeBuilder(topo)
        hosts = sorted(topo.hosts())
        cores_used = set()
        for i in range(16):
            tree = builder.build(f"job{i}", hosts[0], hosts[8:12],
                                 tree_index=0)
            for vertex in tree.boxes.values():
                switch = vertex.info.switch_id
                if switch.startswith("core:"):
                    cores_used.add(switch)
        assert len(cores_used) > 1  # lanes spread over the core groups

    def test_core_adjacent_to_both_pod_aggrs(self):
        topo = make_topo()
        builder = LiveChoices(topo)
        for i in range(8):
            key = f"job{i}"
            core = builder.core(key, 0)
            for pod in (0, 1, 2, 3):
                aggr = builder.pod_aggr(key, 0, pod)
                assert core in topo._adjacency[aggr], (
                    f"{core} not wired to {aggr}"
                )

    def test_trees_round_robin_positions(self):
        topo = make_topo()
        builder = LiveChoices(topo)
        positions = {
            builder.pod_aggr("job", t, 0) for t in range(2)
        }
        assert len(positions) == 2  # k=4: two aggr positions per pod

    def test_netagg_beats_rack_on_fat_tree(self):
        topo_rack = fat_tree(4)
        job = cross_pod_job(topo_rack, n_workers=6)
        rack_specs = RackLevelStrategy().plan_job(job, topo_rack,
                                                  EcmpRouter())
        sim = FlowSim(topo_rack.network)
        sim.add_flows(rack_specs)
        rack_result = sim.run()

        topo_na = make_topo()
        na_specs = NetAggStrategy().plan_job(job, topo_na, EcmpRouter())
        sim = FlowSim(topo_na.network)
        sim.add_flows(na_specs)
        na_result = sim.run()
        assert fct_summary(na_result).p99 <= fct_summary(rack_result).p99
