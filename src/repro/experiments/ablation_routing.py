"""Ablation -- ECMP vs single-path routing (§4.1 assumes ECMP).

With single-path routing every flow between a host pair shares one lane,
concentrating load on a few core links; ECMP spreads it.  Quantifies how
much of each strategy's performance depends on multi-path routing.
"""

from __future__ import annotations

from repro.aggregation import NetAggStrategy, RackLevelStrategy, deploy_boxes
from repro.experiments.common import DEFAULT, ExperimentResult, SimScale, simulate
from repro.experiments import register
from repro.netsim.metrics import fct_summary
from repro.netsim.routing import EcmpRouter, SinglePathRouter


@register("ablation_routing")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation-routing",
        description="99th-pct FCT (s): ECMP vs single-path routing",
        columns=("strategy", "ecmp_p99_s", "single_path_p99_s",
                 "single_path_penalty"),
    )
    for strategy, deploy in (
        (RackLevelStrategy(), None),
        (NetAggStrategy(), deploy_boxes),
    ):
        ecmp = simulate(scale, strategy, deploy=deploy, seed=seed,
                        router=EcmpRouter())
        single = simulate(scale, strategy, deploy=deploy, seed=seed,
                          router=SinglePathRouter())
        ecmp_p99 = fct_summary(ecmp).p99
        single_p99 = fct_summary(single).p99
        result.add_row(
            strategy=strategy.name,
            ecmp_p99_s=ecmp_p99,
            single_path_p99_s=single_p99,
            single_path_penalty=single_p99 / ecmp_p99,
        )
    return result
