"""Fig. 6 -- CDF of flow completion time, all traffic.

Four strategies over the same workload.  The paper's shape: binary and
chain improve the tail over rack but hurt mid-distribution flows (their
extra edge-link usage squeezes other traffic); NetAgg improves the whole
distribution.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.aggregation import (
    BinaryTreeStrategy,
    ChainStrategy,
    NetAggStrategy,
    RackLevelStrategy,
    deploy_boxes,
)
from repro.experiments.common import DEFAULT, ExperimentResult, SimScale, simulate
from repro.experiments import register
from repro.experiments.sweep import run_parallel

STRATEGIES = (
    (RackLevelStrategy(), None),
    (BinaryTreeStrategy(), None),
    (ChainStrategy(), None),
    (NetAggStrategy(), deploy_boxes),
)

#: CDF fractions sampled into the result rows.
FRACTIONS = (0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.00)


def _strategy_fcts(task: Tuple[int, SimScale, int]) -> List[float]:
    """One strategy's sorted FCT list (module-level: pool-picklable)."""
    index, scale, seed = task
    strategy, deploy = STRATEGIES[index]
    sim = simulate(scale, strategy, deploy=deploy, seed=seed)
    return sorted(sim.fcts())


@register("fig06")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig06",
        description="FCT at sampled CDF fractions, all traffic (seconds)",
        columns=("strategy",) + tuple(f"p{int(f * 100)}" for f in FRACTIONS),
    )
    tasks = [(index, scale, seed) for index in range(len(STRATEGIES))]
    per_strategy = run_parallel(_strategy_fcts, tasks)
    for (strategy, _deploy), fcts in zip(STRATEGIES, per_strategy):
        row = {"strategy": strategy.name}
        for fraction in FRACTIONS:
            index = min(len(fcts) - 1, int(fraction * len(fcts)) - 1)
            row[f"p{int(fraction * 100)}"] = fcts[max(index, 0)]
        result.add_row(**row)
    return result
