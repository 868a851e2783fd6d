"""Fig. 9 -- CDF of per-link traffic (α = 10%).

The mechanism behind Fig. 8's crossover: edge trees put aggregation
traffic on *worker* links.  Paper measurement: at α=10% chain's median
link traffic is ~4x rack's (binary ~2.5x); NetAgg's stays at or below
rack's because boxes absorb the fan-in.
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
from repro.units import MB, percentile

STRATEGIES = (
    (RackLevelStrategy(), None),
    (BinaryTreeStrategy(), None),
    (ChainStrategy(), None),
    (NetAggStrategy(), deploy_boxes),
)


@register("fig09")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig09",
        description="per-link carried traffic (MB) at alpha=10%",
        columns=("strategy", "median_mb", "p90_mb", "total_gb",
                 "median_vs_rack"),
    )
    rack_median = None
    for strategy, deploy in STRATEGIES:
        sim = simulate(scale, strategy, deploy=deploy, seed=seed)
        traffic = list(sim.link_traffic(wire_only=True).values())
        median = percentile(traffic, 50.0)
        if rack_median is None:
            rack_median = median
        result.add_row(
            strategy=strategy.name,
            median_mb=median / MB,
            p90_mb=percentile(traffic, 90.0) / MB,
            total_gb=sum(traffic) / 1e9,
            median_vs_rack=median / rack_median if rack_median else 0.0,
        )
    return result
