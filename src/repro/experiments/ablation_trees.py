"""Ablation -- multiple aggregation trees per application (§3.1).

A single tree funnels every job through one lane of the multi-rooted
topology; k disjoint trees spread load over k cores/aggregation
switches.  The effect shows on aggregatable-flow FCT under core
contention (high over-subscription).
"""

from __future__ import annotations

from repro.aggregation import NetAggStrategy, RackLevelStrategy, deploy_boxes
from repro.experiments.common import DEFAULT, ExperimentResult, SimScale, simulate
from repro.experiments import register
from repro.netsim.metrics import fct_summary, relative_p99

TREE_COUNTS = (1, 2, 4)


@register("ablation_trees")
def run(scale: SimScale = DEFAULT, seed: int = 1,
        oversubscription: float = 8.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation-trees",
        description="NetAgg with k disjoint aggregation trees "
                    f"(oversubscription {oversubscription:.0f}:1)",
        columns=("n_trees", "relative_p99", "agg_p99_s"),
    )
    sub = scale.with_topo(oversubscription=oversubscription)
    baseline = simulate(sub, RackLevelStrategy(), seed=seed)
    for n_trees in TREE_COUNTS:
        tree_scale = sub.with_workload(n_trees=n_trees)
        sim = simulate(tree_scale, NetAggStrategy(), deploy=deploy_boxes,
                       seed=seed)
        result.add_row(
            n_trees=n_trees,
            relative_p99=relative_p99(sim, baseline),
            agg_p99_s=fct_summary(sim, aggregatable=True).p99,
        )
    return result
