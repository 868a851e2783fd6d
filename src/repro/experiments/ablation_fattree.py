"""Ablation -- NetAgg on a fat-tree with multiple aggregation trees.

A k-ary fat-tree offers (k/2)^2 equal-cost core paths between pods --
exactly the diversity §3.1's multiple disjoint aggregation trees exist
to exploit.  This experiment deploys boxes over a fat-tree and sweeps
the tree count: with one tree per application every job funnels through
a single core group; more trees spread the aggregation load across the
fabric.
"""

from __future__ import annotations

from repro.aggregation import NetAggStrategy, RackLevelStrategy
from repro.experiments import register
from repro.experiments.common import (
    DEFAULT,
    ExperimentResult,
    SimScale,
)
from repro.netsim.metrics import fct_summary, relative_p99
from repro.netsim.simulator import FlowSim
from repro.topology import fat_tree
from repro.topology.base import AGGR, CORE, TOR
from repro.units import Gbps, MB
from repro.workload import WorkloadParams, generate_workload

TREE_COUNTS = (1, 2, 4)


def _workload_params(n_trees: int) -> WorkloadParams:
    return WorkloadParams(
        n_flows=200,
        mean_flow_size=1 * MB,
        pareto_shape=1.5,
        max_flow_size=10 * MB,
        aggregatable_fraction=0.5,
        worker_pareto_shape=1.0,
        max_workers=24,
        n_trees=n_trees,
    )


_QUICK = dict(k=4, tree_counts=(1, 2))


@register("ablation_fattree")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    return _sweep(seed=seed, **(_QUICK if scale.name == "quick" else {}))


def _sweep(k: int = 8, tree_counts=TREE_COUNTS,
           seed: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation-fattree",
        description=f"NetAgg on a k={k} fat-tree: 99th-pct FCT relative "
                    "to rack-level, sweeping trees per application",
        columns=("n_trees", "relative_p99", "agg_p99_s"),
    )
    baseline_topo = fat_tree(k)
    baseline_wl = generate_workload(baseline_topo, _workload_params(1),
                                    seed=seed)
    sim = FlowSim(baseline_topo.network)
    sim.add_flows(RackLevelStrategy().plan(baseline_wl, baseline_topo))
    baseline = sim.run()

    for n_trees in tree_counts:
        topo = fat_tree(k)
        for tier in (TOR, AGGR, CORE):
            for switch in topo.switches(tier):
                topo.attach_aggbox(switch, link_rate=Gbps(10.0),
                                   proc_rate=Gbps(9.2))
        workload = generate_workload(topo, _workload_params(n_trees),
                                     seed=seed)
        sim = FlowSim(topo.network)
        sim.add_flows(NetAggStrategy().plan(workload, topo))
        outcome = sim.run()
        result.add_row(
            n_trees=n_trees,
            relative_p99=relative_p99(outcome, baseline),
            agg_p99_s=fct_summary(outcome, aggregatable=True).p99,
        )
    return result
