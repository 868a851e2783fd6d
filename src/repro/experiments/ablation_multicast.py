"""Extension -- on-path multicast vs unicast fan-out (§5's proposal).

The paper suggests application-specific middleboxes could also run
one-to-many distribution (broadcast phases of iterative jobs).  This
experiment distributes one payload from a source to N receivers either
as N unicast copies or through a box distribution tree, and reports the
completion time and the copies crossing the source's edge link.
"""

from __future__ import annotations

from repro.aggregation import deploy_boxes
from repro.core.multicast import (
    build_multicast_tree,
    multicast_link_copies,
    plan_multicast_flows,
    plan_unicast_flows,
)
from repro.experiments import register
from repro.experiments.common import (
    DEFAULT,
    ExperimentResult,
    SimScale,
)
from repro.netsim.simulator import FlowSim
from repro.topology.threetier import ThreeTierParams, three_tier
from repro.units import MB

RECEIVER_COUNTS = (4, 8, 16, 32)


_QUICK = dict(receiver_counts=(4, 16))


@register("ablation_multicast")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    return _sweep(**(_QUICK if scale.name == "quick" else {}))


def _sweep(receiver_counts=RECEIVER_COUNTS,
           payload_mb: float = 20.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation-multicast",
        description=f"broadcasting {payload_mb:.0f} MB to N receivers: "
                    "unicast vs on-path multicast",
        columns=("receivers", "unicast_s", "multicast_s", "speedup",
                 "source_link_copies_unicast", "source_link_copies_mc"),
    )
    params = ThreeTierParams(n_pods=2, tors_per_pod=2, aggrs_per_pod=2,
                             n_cores=2, hosts_per_tor=16)
    payload = payload_mb * MB
    for n_receivers in receiver_counts:
        receivers = [f"host:{i + 1}" for i in range(n_receivers)]

        topo = three_tier(params)
        sim = FlowSim(topo.network)
        uc_specs = plan_unicast_flows(topo, "host:0", receivers, payload)
        sim.add_flows(uc_specs)
        unicast_s = sim.run().end_time

        topo = three_tier(params)
        deploy_boxes(topo)
        tree = build_multicast_tree(topo, "bcast", "host:0", receivers)
        mc_specs = plan_multicast_flows(topo, tree, payload)
        sim = FlowSim(topo.network)
        sim.add_flows(mc_specs)
        multicast_s = sim.run().end_time

        result.add_row(
            receivers=n_receivers,
            unicast_s=unicast_s,
            multicast_s=multicast_s,
            speedup=unicast_s / multicast_s,
            source_link_copies_unicast=multicast_link_copies(
                uc_specs, payload)["host:0->tor:0"],
            source_link_copies_mc=multicast_link_copies(
                mc_specs, payload)["host:0->tor:0"],
        )
    return result
