"""Ablation -- arrival patterns (§4.1's robustness claim).

The paper's default workload starts every flow simultaneously ("a worst
case for network contention") and notes: "We also ran experiments using
dynamic workloads with various arrival patterns, obtaining comparable
results (between 2%-10% of the reported FCT values)."  This ablation
reproduces that robustness check: NetAgg's relative p99 under
simultaneous, uniform and Poisson arrivals.
"""

from __future__ import annotations

from repro.aggregation import NetAggStrategy, RackLevelStrategy, deploy_boxes
from repro.experiments.common import DEFAULT, ExperimentResult, SimScale, simulate
from repro.experiments import register
from repro.netsim.metrics import relative_p99

ARRIVALS = (
    ("simultaneous", 0.0),
    ("uniform", 0.5),
    ("uniform", 2.0),
    ("poisson", 0.5),
    ("poisson", 2.0),
)


@register("ablation_arrivals")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation-arrivals",
        description="NetAgg relative p99 under different arrival patterns",
        columns=("arrival_process", "span_s", "netagg_relative_p99"),
    )
    for process, span in ARRIVALS:
        sub = scale.with_workload(arrival_process=process,
                                  arrival_span=span)
        baseline = simulate(sub, RackLevelStrategy(), seed=seed)
        netagg = simulate(sub, NetAggStrategy(), deploy=deploy_boxes,
                          seed=seed)
        result.add_row(
            arrival_process=process,
            span_s=span,
            netagg_relative_p99=relative_p99(netagg, baseline),
        )
    return result
