"""Ablation -- locality-aware vs random worker placement (§4.1).

The paper places workers "as close to each other as possible".  Random
placement scatters jobs across pods, pushing aggregation traffic through
the over-subscribed core; this quantifies how much that costs each
strategy -- and how much less it costs NetAgg, which aggregates inside
the core.
"""

from __future__ import annotations

from repro.aggregation import NetAggStrategy, RackLevelStrategy, deploy_boxes
from repro.experiments.common import DEFAULT, ExperimentResult, SimScale, simulate
from repro.experiments import register
from repro.netsim.metrics import fct_summary


@register("ablation_placement")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation-placement",
        description="99th-pct FCT (s) under locality-aware vs random "
                    "placement",
        columns=("strategy", "locality_p99_s", "random_p99_s",
                 "random_penalty"),
    )
    for strategy, deploy in (
        (RackLevelStrategy(), None),
        (NetAggStrategy(), deploy_boxes),
    ):
        local = simulate(scale, strategy, deploy=deploy, seed=seed)
        scattered = simulate(
            scale.with_workload(random_placement=True),
            strategy, deploy=deploy, seed=seed,
        )
        local_p99 = fct_summary(local).p99
        random_p99 = fct_summary(scattered).p99
        result.add_row(
            strategy=strategy.name,
            locality_p99_s=local_p99,
            random_p99_s=random_p99,
            random_penalty=random_p99 / local_p99,
        )
    return result
