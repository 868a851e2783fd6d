"""Fig. 11 -- relative 99th-pct FCT vs over-subscription (α = 10%).

NetAgg helps most when the core is over-subscribed (it removes traffic
at every hop), but still wins at full bisection because the master's and
the rack aggregator's inbound links remain bottlenecks.
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

OVERSUBSCRIPTIONS = (1.0, 2.0, 4.0, 8.0, 16.0)
STRATEGIES = (
    (BinaryTreeStrategy(), None),
    (ChainStrategy(), None),
    (NetAggStrategy(), deploy_boxes),
)


@register("fig11")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig11",
        description="99th-pct FCT vs over-subscription, relative to rack",
        columns=("oversubscription", "binary", "chain", "netagg"),
    )
    for oversub in OVERSUBSCRIPTIONS:
        sub = scale.with_topo(oversubscription=oversub)
        baseline = simulate(sub, RackLevelStrategy(), seed=seed)
        row = {"oversubscription": oversub}
        for strategy, deploy in STRATEGIES:
            sim = simulate(sub, strategy, deploy=deploy, seed=seed)
            row[strategy.name] = relative_p99(sim, baseline)
        result.add_row(**row)
    return result
