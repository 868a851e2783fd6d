"""Fig. 12 -- partial NetAgg deployments.

Two questions: (a) which *tier* benefits most from boxes (ToR-only vs
aggregation-only vs core-only vs full)?  (b) with a fixed budget of
boxes, where should they go?  The paper finds the core/aggregation tiers
matter most -- they intercept the most flows -- so incremental roll-outs
should start there.
"""

from __future__ import annotations

from repro.aggregation import (
    NetAggStrategy,
    RackLevelStrategy,
    deploy_box_budget,
    deploy_boxes,
)
from repro.experiments.common import DEFAULT, ExperimentResult, SimScale, simulate
from repro.experiments import register
from repro.netsim.metrics import relative_p99
from repro.topology.base import AGGR, CORE, TOR

TIER_CONFIGS = (
    ("tor-only", (TOR,)),
    ("aggr-only", (AGGR,)),
    ("core-only", (CORE,)),
    ("full", (TOR, AGGR, CORE)),
)

BUDGET_CONFIGS = (
    ("budget-core", (CORE,)),
    ("budget-aggr", (AGGR,)),
    ("budget-aggr+core", (AGGR, CORE)),
)


@register("fig12")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig12",
        description="partial deployments, 99th-pct FCT relative to rack",
        columns=("deployment", "n_boxes", "relative_p99"),
    )
    baseline = simulate(scale, RackLevelStrategy(), seed=seed)

    for name, tiers in TIER_CONFIGS:
        boxes = [0]

        def deploy(topo, tiers=tiers, boxes=boxes):
            boxes[0] = deploy_boxes(topo, tiers=tiers)

        sim = simulate(scale, NetAggStrategy(), deploy=deploy, seed=seed)
        result.add_row(deployment=name, n_boxes=boxes[0],
                       relative_p99=relative_p99(sim, baseline))

    # Fixed budget: as many boxes as the aggregation tier has switches.
    budget = scale.topo.n_pods * scale.topo.aggrs_per_pod
    for name, tiers in BUDGET_CONFIGS:
        def deploy(topo, tiers=tiers):
            deploy_box_budget(topo, budget=budget, tiers=tiers)

        sim = simulate(scale, NetAggStrategy(), deploy=deploy, seed=seed)
        result.add_row(deployment=name, n_boxes=budget,
                       relative_p99=relative_p99(sim, baseline))
    return result
