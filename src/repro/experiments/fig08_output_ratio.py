"""Fig. 8 -- relative 99th-pct FCT vs aggregation output ratio α.

α sweeps from 5% (strong reduction, top-k/max/count-like) to 100%
(nothing can be aggregated).  Paper shape: NetAgg's benefit shrinks as α
grows; chain is *worse* than rack at large α because its hops carry
accumulating data over extra edge links.
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

ALPHAS = (0.05, 0.10, 0.25, 0.50, 0.75, 1.00)
STRATEGIES = (
    (BinaryTreeStrategy(), None),
    (ChainStrategy(), None),
    (NetAggStrategy(), deploy_boxes),
)


@register("fig08")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig08",
        description="99th-pct FCT vs output ratio alpha, relative to rack",
        columns=("alpha", "binary", "chain", "netagg"),
    )
    for alpha in ALPHAS:
        sub = scale.with_workload(alpha=alpha)
        baseline = simulate(sub, RackLevelStrategy(), seed=seed)
        row = {"alpha": alpha}
        for strategy, deploy in STRATEGIES:
            sim = simulate(sub, strategy, deploy=deploy, seed=seed)
            row[strategy.name] = relative_p99(sim, baseline)
        result.add_row(**row)
    return result
