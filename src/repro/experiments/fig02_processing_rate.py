"""Fig. 2 -- 99th-pct FCT vs agg-box processing rate R.

The feasibility question of §2.4: how fast must a software agg box be to
beat rack-level aggregation?  The paper finds even 2 Gbps per box cuts
the tail substantially under 4:1 over-subscription, with diminishing
returns past ~6 Gbps.
"""

from __future__ import annotations

from repro.aggregation import NetAggStrategy, RackLevelStrategy, deploy_boxes
from repro.experiments.common import DEFAULT, ExperimentResult, SimScale, simulate
from repro.experiments import register
from repro.netsim.metrics import relative_p99
from repro.units import Gbps

PROCESSING_RATES_GBPS = (2.0, 4.0, 6.0, 8.0, 10.0)
OVERSUBSCRIPTIONS = (1.0, 4.0)


@register("fig02")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig02",
        description="99th-pct FCT vs agg box processing rate, "
                    "relative to rack-level aggregation",
        columns=("oversubscription", "rate_gbps", "relative_p99"),
    )
    for oversub in OVERSUBSCRIPTIONS:
        sub_scale = scale.with_topo(oversubscription=oversub)
        baseline = simulate(sub_scale, RackLevelStrategy(), seed=seed)
        for rate in PROCESSING_RATES_GBPS:
            netagg = simulate(
                sub_scale,
                NetAggStrategy(),
                deploy=lambda t, r=rate: deploy_boxes(t, proc_rate=Gbps(r)),
                seed=seed,
            )
            result.add_row(
                oversubscription=oversub,
                rate_gbps=rate,
                relative_p99=relative_p99(netagg, baseline),
            )
    return result
