"""Fig. 14 -- impact of straggling workers.

Stragglers delay their partial results, shrinking the window in which
aggregation can combine data; NetAgg's relative benefit decays with the
straggler ratio but stays positive at realistic ratios.
"""

from __future__ import annotations

from repro.aggregation import NetAggStrategy, RackLevelStrategy, deploy_boxes
from repro.experiments.common import DEFAULT, ExperimentResult, SimScale, simulate
from repro.experiments import register
from repro.netsim.metrics import relative_p99
from repro.workload.stragglers import StragglerModel

STRAGGLER_RATIOS = (0.0, 0.05, 0.1, 0.2, 0.4)


@register("fig14")
def run(scale: SimScale = DEFAULT, seed: int = 1,
        mean_delay: float = 0.5) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig14",
        description="99th-pct FCT relative to rack vs straggler ratio",
        columns=("straggler_ratio", "netagg_relative_p99"),
    )
    for ratio in STRAGGLER_RATIOS:
        model = StragglerModel(ratio=ratio, mean_delay=mean_delay) \
            if ratio > 0 else None
        baseline = simulate(scale, RackLevelStrategy(), seed=seed,
                            stragglers=model)
        netagg = simulate(scale, NetAggStrategy(), deploy=deploy_boxes,
                          seed=seed, stragglers=model)
        result.add_row(
            straggler_ratio=ratio,
            netagg_relative_p99=relative_p99(netagg, baseline),
        )
    return result
