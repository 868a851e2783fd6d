"""Fig. 13 -- NetAgg in a 10 Gbps network, with box scale-out.

With 10 Gbps edges the single agg box (9.2 Gbps processing) becomes the
bottleneck at low over-subscription; attaching two or four boxes per
switch restores the benefit -- the paper's argument that NetAgg scales
out with future network upgrades.
"""

from __future__ import annotations

from repro.aggregation import NetAggStrategy, RackLevelStrategy, deploy_boxes
from repro.experiments.common import DEFAULT, ExperimentResult, SimScale, simulate
from repro.experiments import register
from repro.netsim.metrics import relative_p99
from repro.units import Gbps

OVERSUBSCRIPTIONS = (1.0, 2.0, 4.0, 8.0)
BOXES_PER_SWITCH = (1, 2, 4)


@register("fig13")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig13",
        description="10G network: 99th-pct FCT relative to rack, "
                    "1x/2x/4x boxes per switch",
        columns=("oversubscription",) + tuple(
            f"x{n}_boxes" for n in BOXES_PER_SWITCH
        ),
    )
    ten_g = scale.with_topo(edge_rate=Gbps(10.0))
    # Flows must be larger to load a 10G fabric comparably.
    ten_g = ten_g.with_workload(
        mean_flow_size=scale.workload.mean_flow_size * 10,
        max_flow_size=scale.workload.max_flow_size * 10,
    )
    for oversub in OVERSUBSCRIPTIONS:
        sub = ten_g.with_topo(oversubscription=oversub)
        baseline = simulate(sub, RackLevelStrategy(), seed=seed)
        row = {"oversubscription": oversub}
        for n_boxes in BOXES_PER_SWITCH:
            # Applications spread their aggregation trees across the
            # boxes of a switch (§3.1): one disjoint tree per box, so a
            # job's ingest scales with the attached boxes.
            sim = simulate(
                sub.with_workload(n_trees=n_boxes),
                NetAggStrategy(),
                deploy=lambda t, n=n_boxes: deploy_boxes(
                    t, link_rate=Gbps(10.0), boxes_per_switch=n
                ),
                seed=seed,
            )
            row[f"x{n_boxes}_boxes"] = relative_p99(sim, baseline)
        result.add_row(**row)
    return result
