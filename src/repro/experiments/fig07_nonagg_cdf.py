"""Fig. 7 -- CDF of flow completion time, non-aggregatable traffic only.

The paper's point: NetAgg speeds up even flows it cannot aggregate,
because shrinking the aggregatable traffic frees shared bandwidth.
"""

from __future__ import annotations

from repro.experiments.common import DEFAULT, ExperimentResult, SimScale, simulate
from repro.experiments import register
from repro.experiments.fig06_fct_cdf import FRACTIONS, STRATEGIES


@register("fig07")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig07",
        description="FCT at sampled CDF fractions, non-aggregatable "
                    "traffic (seconds)",
        columns=("strategy",) + tuple(f"p{int(f * 100)}" for f in FRACTIONS),
    )
    for strategy, deploy in STRATEGIES:
        sim = simulate(scale, strategy, deploy=deploy, seed=seed)
        fcts = sorted(sim.fcts(aggregatable=False))
        row = {"strategy": strategy.name}
        for fraction in FRACTIONS:
            index = min(len(fcts) - 1, int(fraction * len(fcts)) - 1)
            row[f"p{int(fraction * 100)}"] = fcts[max(index, 0)]
        result.add_row(**row)
    return result
