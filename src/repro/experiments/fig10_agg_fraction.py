"""Fig. 10 -- relative 99th-pct FCT vs fraction of aggregatable flows.

More aggregatable traffic helps all strategies, but past ~60% binary and
chain start to lose again (their edge-link overhead grows with the
aggregation volume); NetAgg keeps the lowest FCT all the way to 100%.
"""

from __future__ import annotations

from repro.aggregation import (
    BinaryTreeStrategy,
    ChainStrategy,
    NetAggStrategy,
    RackLevelStrategy,
    deploy_boxes,
)
from repro.experiments.common import DEFAULT, ExperimentResult, SimScale, simulate
from repro.experiments import register
from repro.netsim.metrics import relative_p99

FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)
STRATEGIES = (
    (BinaryTreeStrategy(), None),
    (ChainStrategy(), None),
    (NetAggStrategy(), deploy_boxes),
)


@register("fig10")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig10",
        description="99th-pct FCT vs aggregatable flow fraction, "
                    "relative to rack",
        columns=("fraction", "binary", "chain", "netagg"),
    )
    for fraction in FRACTIONS:
        sub = scale.with_workload(aggregatable_fraction=fraction)
        baseline = simulate(sub, RackLevelStrategy(), seed=seed)
        row = {"fraction": fraction}
        for strategy, deploy in STRATEGIES:
            sim = simulate(sub, strategy, deploy=deploy, seed=seed)
            row[strategy.name] = relative_p99(sim, baseline)
        result.add_row(**row)
    return result
