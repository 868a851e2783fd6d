"""Fig. 3 -- performance and upgrade cost of DC configurations.

Compares rack-level aggregation on upgraded networks (FullBisec-10G,
Oversub-10G, FullBisec-1G) against NetAgg and Incremental-NetAgg on the
base network (1 Gbps edges, 4:1 over-subscription).  The paper's
finding: NetAgg achieves nearly FullBisec-10G's FCT reduction at a small
fraction of its cost.
"""

from __future__ import annotations

from repro.aggregation import NetAggStrategy, RackLevelStrategy, deploy_boxes
from repro.cost.model import PriceList, netagg_cost, upgrade_cost
from repro.experiments.common import DEFAULT, ExperimentResult, SimScale, simulate
from repro.experiments import register
from repro.netsim.metrics import relative_p99
from repro.topology.base import AGGR
from repro.units import Gbps


@register("fig03")
def run(scale: SimScale = DEFAULT, seed: int = 1,
        prices: PriceList = PriceList()) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig03",
        description="FCT (relative to base rack-level) and upgrade cost",
        columns=("configuration", "relative_p99", "upgrade_cost_usd"),
    )
    base = scale.topo
    baseline = simulate(scale, RackLevelStrategy(), seed=seed)

    def rack_on(topo_overrides) -> float:
        sub = scale.with_topo(**topo_overrides)
        return relative_p99(
            simulate(sub, RackLevelStrategy(), seed=seed), baseline
        )

    # -- upgraded networks, still rack-level aggregation -------------------
    full_10g = dict(edge_rate=Gbps(10.0), oversubscription=1.0)
    oversub_10g = dict(edge_rate=Gbps(10.0))
    full_1g = dict(oversubscription=1.0)
    result.add_row(
        configuration="FullBisec-10G",
        relative_p99=rack_on(full_10g),
        upgrade_cost_usd=upgrade_cost(base, base.scaled(**full_10g),
                                      prices).total,
    )
    result.add_row(
        configuration="Oversub-10G",
        relative_p99=rack_on(oversub_10g),
        upgrade_cost_usd=upgrade_cost(base, base.scaled(**oversub_10g),
                                      prices).total,
    )
    result.add_row(
        configuration="FullBisec-1G",
        relative_p99=rack_on(full_1g),
        upgrade_cost_usd=upgrade_cost(base, base.scaled(**full_1g),
                                      prices).total,
    )

    # -- NetAgg on the base network -----------------------------------------
    n_switches = (base.n_tors + base.n_pods * base.aggrs_per_pod
                  + base.n_cores)
    netagg = simulate(scale, NetAggStrategy(), deploy=deploy_boxes,
                      seed=seed)
    result.add_row(
        configuration="NetAgg",
        relative_p99=relative_p99(netagg, baseline),
        upgrade_cost_usd=netagg_cost(n_switches, prices).total,
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
        upgrade_cost_usd=netagg_cost(n_aggr, prices).total,
    )
    return result
