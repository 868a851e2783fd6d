"""Fig. 3 -- performance and upgrade cost of DC configurations.

Compares rack-level aggregation on upgraded networks (FullBisec-10G,
Oversub-10G, FullBisec-1G) against NetAgg and Incremental-NetAgg on the
base network (1 Gbps edges, 4:1 over-subscription).  The paper's
finding: NetAgg achieves nearly FullBisec-10G's FCT reduction at a small
fraction of its cost.
"""

from __future__ import annotations

from dataclasses import replace

from repro.aggregation import NetAggStrategy, RackLevelStrategy, deploy_boxes
from repro.cost.model import netagg_cost, upgrade_cost
from repro.experiments.common import DEFAULT, ExperimentResult, SimScale, simulate
from repro.experiments import register
from repro.netsim.metrics import relative_p99
from repro.topology.base import AGGR
from repro.units import Gbps


@register("fig03")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig03",
        description="FCT (relative to base rack-level) and upgrade cost",
        columns=("configuration", "relative_p99", "upgrade_cost_usd"),
    )
    base = scale.topo
    baseline = simulate(scale, RackLevelStrategy(), seed=seed)

    # -- upgraded networks, still rack-level aggregation -------------------
    upgrades = (
        ("FullBisec-10G",
         base.scaled(edge_rate=Gbps(10.0), oversubscription=1.0)),
        ("Oversub-10G", base.scaled(edge_rate=Gbps(10.0))),
        ("FullBisec-1G", base.scaled(oversubscription=1.0)),
    )
    for configuration, target in upgrades:
        rack = simulate(replace(scale, topo=target), RackLevelStrategy(),
                        seed=seed)
        result.add_row(
            configuration=configuration,
            relative_p99=relative_p99(rack, baseline),
            upgrade_cost_usd=upgrade_cost(base, target).total,
        )

    # -- NetAgg on the base network -----------------------------------------
    n_switches = (base.n_tors + base.n_pods * base.aggrs_per_pod
                  + base.n_cores)
    netagg = simulate(scale, NetAggStrategy(), deploy=deploy_boxes,
                      seed=seed)
    result.add_row(
        configuration="NetAgg",
        relative_p99=relative_p99(netagg, baseline),
        upgrade_cost_usd=netagg_cost(n_switches).total,
    )
    n_aggr = base.n_pods * base.aggrs_per_pod
    incremental = simulate(
        scale, NetAggStrategy(),
        deploy=lambda t: deploy_boxes(t, tiers=(AGGR,)),
        seed=seed,
    )
    result.add_row(
        configuration="Incremental-NetAgg",
        relative_p99=relative_p99(incremental, baseline),
        upgrade_cost_usd=netagg_cost(n_aggr).total,
    )
    return result
