"""Tests for the NetAgg on-path strategy and box deployment helpers."""

import pytest

from repro.aggregation import (
    NetAggStrategy,
    RackLevelStrategy,
    deploy_box_budget,
    deploy_boxes,
    onpath,
)
from repro.netsim import FlowSim
from repro.netsim.metrics import fct_summary
from repro.netsim.routing import EcmpRouter
from repro.topology import ThreeTierParams, three_tier
from repro.topology.base import AGGR, CORE, TOR
from repro.units import Gbps, MB
from repro.workload import AggJob, Workload

SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=4
)


def make_topo(tiers=(TOR, AGGR, CORE), boxes_per_switch=1,
              proc_rate=Gbps(9.2)):
    topo = three_tier(SMALL)
    deploy_boxes(topo, tiers=tiers, proc_rate=proc_rate,
                 boxes_per_switch=boxes_per_switch)
    return topo


def cross_pod_job(alpha=0.1, n_trees=1):
    # master host:0 (pod 0), workers in pod 0 rack 1 and pod 1.
    return AggJob(
        "j", "host:0",
        (
            ("host:4", 10 * MB), ("host:5", 10 * MB),
            ("host:8", 10 * MB), ("host:9", 10 * MB),
            ("host:12", 10 * MB),
        ),
        alpha=alpha,
        n_trees=n_trees,
    )


def plan(topo, job):
    return NetAggStrategy().plan_job(job, topo, EcmpRouter())


def run(topo, specs):
    sim = FlowSim(topo.network)
    sim.add_flows(specs)
    return sim.run()


def by_id(specs):
    return {s.flow_id: s for s in specs}


class TestTreeConstruction:
    def test_worker_flows_enter_first_box(self):
        topo = make_topo()
        specs = plan(topo, cross_pod_job())
        workers = [s for s in specs if s.kind == "worker"]
        assert len(workers) == 5
        for spec in workers:
            # Last two path entries: switch->box wire, box processing.
            assert spec.path[-1].startswith("proc:box:")
            assert spec.size == 10 * MB  # raw partial result

    def test_exactly_one_result_flow(self):
        topo = make_topo()
        specs = plan(topo, cross_pod_job())
        results = [s for s in specs if s.kind == "result"]
        assert len(results) == 1
        assert results[0].path[-1].endswith("->host:0")

    def test_all_box_flows_have_dependencies(self):
        topo = make_topo()
        specs = plan(topo, cross_pod_job())
        for spec in specs:
            if spec.kind in ("internal", "result"):
                assert spec.children

    def test_internal_flows_traverse_parent_proc(self):
        topo = make_topo()
        specs = plan(topo, cross_pod_job())
        for spec in specs:
            if spec.kind == "internal":
                assert spec.path[-1].startswith("proc:box:")

    def test_simulation_completes(self):
        topo = make_topo()
        specs = plan(topo, cross_pod_job())
        result = run(topo, specs)
        assert len(result.records) == len(specs)

    def test_result_size_bounded_by_dictionary(self):
        job = cross_pod_job(alpha=0.1)
        topo = make_topo()
        specs = plan(topo, job)
        (res,) = [s for s in specs if s.kind == "result"]
        assert res.size == pytest.approx(0.1 * job.total_bytes)

    def test_intra_rack_worker_aggregates_at_tor(self):
        topo = make_topo()
        job = AggJob("j", "host:0",
                     (("host:1", MB), ("host:2", MB)), alpha=0.5)
        specs = plan(topo, job)
        flows = by_id(specs)
        # Both workers feed the box at tor:0; one result flow out.
        assert sum(1 for s in specs if s.kind == "worker") == 2
        (res,) = [s for s in specs if s.kind == "result"]
        assert "tor:0" in res.path[0] or "box:tor:0" in res.path[0]

    def test_master_as_worker_rejected(self):
        topo = make_topo()
        job = AggJob("j", "host:0", (("host:0", MB),), alpha=0.5)
        with pytest.raises(ValueError):
            plan(topo, job)


class TestPartialDeployment:
    def test_no_boxes_means_direct_flows(self):
        topo = three_tier(SMALL)  # no boxes at all
        specs = plan(topo, cross_pod_job())
        assert all(s.kind == "worker" for s in specs)
        assert all(s.path[-1].endswith("->host:0") for s in specs)

    def test_core_only_deployment(self):
        topo = make_topo(tiers=(CORE,))
        specs = plan(topo, cross_pod_job())
        # Pod-0 workers (same pod as master) never cross a core, so they
        # go direct; pod-1 workers aggregate at the core box.
        proc_flows = [s for s in specs if s.path and
                      s.path[-1].startswith("proc:")]
        direct = [s for s in specs if s.kind == "worker" and
                  s.path[-1].endswith("->host:0")]
        assert proc_flows and direct

    def test_tor_only_deployment(self):
        topo = make_topo(tiers=(TOR,))
        specs = plan(topo, cross_pod_job())
        kinds = {s.kind for s in specs}
        assert "internal" in kinds  # ToR box -> master-ToR box segments
        result = run(topo, specs)
        assert len(result.records) == len(specs)

    def test_budget_deployment_counts(self):
        topo = three_tier(SMALL)
        placed = deploy_box_budget(topo, budget=3, tiers=(CORE,))
        assert len(placed) == 3
        # 2 cores: round-robin wraps, one core gets 2 boxes.
        assert len(topo.all_boxes()) == 3
        per_switch = [len(topo.boxes_at(s)) for s in sorted(set(placed))]
        assert sorted(per_switch) == [1, 2]

    def test_budget_requires_switches(self):
        topo = three_tier(SMALL)
        with pytest.raises(ValueError):
            deploy_box_budget(topo, budget=0, tiers=(CORE,))


class TestMultipleTrees:
    def test_worker_data_split_across_trees(self):
        topo = make_topo()
        specs = plan(topo, cross_pod_job(n_trees=2))
        worker0 = [s for s in specs if ":w0" in s.flow_id]
        assert len(worker0) == 2
        assert sum(s.size for s in worker0) == pytest.approx(10 * MB)

    def test_trees_use_distinct_prefixes(self):
        topo = make_topo()
        specs = plan(topo, cross_pod_job(n_trees=3))
        prefixes = {s.flow_id.split(":")[1] for s in specs}
        assert prefixes == {"t0", "t1", "t2"}

    def test_total_result_bytes_preserved(self):
        job = cross_pod_job(alpha=0.1, n_trees=2)
        topo = make_topo()
        specs = plan(topo, job)
        results = [s for s in specs if s.kind == "result"]
        assert len(results) == 2
        assert sum(s.size for s in results) == pytest.approx(
            0.1 * job.total_bytes
        )

    def test_simulation_completes_with_trees(self):
        topo = make_topo()
        specs = plan(topo, cross_pod_job(n_trees=4))
        result = run(topo, specs)
        assert len(result.records) == len(specs)


class TestScaleOut:
    def test_trees_balance_over_boxes(self):
        topo = make_topo(boxes_per_switch=2)
        # Many jobs so the hash spreads; count distinct boxes used.
        used = set()
        for i in range(16):
            job = AggJob(f"j{i}", "host:0",
                         (("host:12", MB), ("host:13", MB)), alpha=0.5)
            for spec in plan(topo, job):
                for link in spec.path:
                    if link.startswith("proc:"):
                        used.add(link)
        switches = {u.rsplit(":", 1)[0] for u in used}
        assert len(used) > len(switches)  # more than one box per switch used

    def test_straggler_delay_propagates_without_bypass(self, monkeypatch):
        monkeypatch.setattr(onpath, "STRAGGLER_BYPASS", 100.0)
        topo = make_topo()
        job = AggJob(
            "j", "host:0",
            (("host:12", MB), ("host:13", MB)),
            alpha=0.5,
            worker_delays=(5.0, 0.0),
        )
        strategy = NetAggStrategy()
        specs = strategy.plan_job(job, topo, EcmpRouter())
        result = run(topo, specs)
        (res_id,) = [s.flow_id for s in specs if s.kind == "result"]
        assert result.records[res_id].completion_time >= 5.0

    def test_straggler_bypass_frees_the_tree(self):
        """§3.1: boxes aggregate available results; the straggler's data
        goes directly to the master and no longer gates the aggregate."""
        topo = make_topo()
        job = AggJob(
            "j", "host:0",
            (("host:12", MB), ("host:13", MB)),
            alpha=0.5,
            worker_delays=(5.0, 0.0),
        )
        specs = plan(topo, job)  # default bypass threshold (0.2 s)
        result = run(topo, specs)
        (res_id,) = [s.flow_id for s in specs if s.kind == "result"]
        # The aggregate completes long before the straggler's delay.
        assert result.records[res_id].completion_time < 5.0
        # The straggler ships directly to the master, raw.
        straggler = result.records["j:t0:w0"]
        assert straggler.spec.path[-1].endswith("->host:0")
        assert straggler.completion_time >= 5.0


class TestProcessingBottleneck:
    def test_slow_box_limits_throughput(self):
        fast = make_topo(proc_rate=Gbps(9.2))
        slow = make_topo(proc_rate=Gbps(0.1))
        job = cross_pod_job()
        fast_res = run(fast, plan(fast, job))
        slow_res = run(slow, plan(slow, job))
        assert fct_summary(slow_res).p99 > fct_summary(fast_res).p99

    def test_netagg_beats_rack_on_incast(self):
        """Eight workers incast into one rack aggregator vs a ToR box."""
        params = ThreeTierParams(n_pods=1, tors_per_pod=2, aggrs_per_pod=1,
                                 n_cores=1, hosts_per_tor=10)
        job = AggJob(
            "j", "host:10",  # master in rack 1
            tuple((f"host:{i}", 10 * MB) for i in range(8)),
            alpha=0.1,
        )
        workload = Workload(jobs=[job])

        topo_rack = three_tier(params)
        rack_specs = RackLevelStrategy().plan(workload, topo_rack)
        rack_result = run(topo_rack, rack_specs)

        topo_na = three_tier(params)
        deploy_boxes(topo_na)
        na_specs = NetAggStrategy().plan(workload, topo_na)
        na_result = run(topo_na, na_specs)

        assert fct_summary(na_result).p99 < 0.5 * fct_summary(rack_result).p99
