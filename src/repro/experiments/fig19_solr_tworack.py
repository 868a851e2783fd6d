"""Fig. 19 -- throughput vs backends per rack, one vs two racks.

Two racks, one agg box each, two Solr deployments: aggregate throughput
doubles because each box serves its own rack's backends -- NetAgg
operates at larger scale by adding boxes with the racks.
"""

from __future__ import annotations

from repro.cluster.deployment import TestbedConfig
from repro.cluster.solr_driver import SolrEmulation, SolrEmulationParams
from repro.experiments import register
from repro.experiments.common import (
    DEFAULT,
    ExperimentResult,
    SimScale,
)

BACKENDS_PER_RACK = (2, 4, 6, 8, 10)

_QUICK = dict(backends=(4, 10), duration=5.0)


@register("fig19")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    return _sweep(seed=seed, **(_QUICK if scale.name == "quick" else {}))


def _sweep(backends=BACKENDS_PER_RACK, duration: float = 10.0,
           n_clients: int = 70, seed: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig19",
        description="NetAgg throughput (Gbps) vs backends per rack",
        columns=("backends_per_rack", "one_rack_gbps", "two_racks_gbps"),
    )
    for n_backends in backends:
        one = SolrEmulation(
            TestbedConfig(racks=1, backends_per_rack=n_backends),
            SolrEmulationParams(n_clients=n_clients, duration=duration,
                                seed=seed, use_netagg=True),
        ).run()
        two = SolrEmulation(
            TestbedConfig(racks=2, backends_per_rack=n_backends),
            SolrEmulationParams(n_clients=2 * n_clients, duration=duration,
                                seed=seed, use_netagg=True),
        ).run()
        result.add_row(
            backends_per_rack=n_backends,
            one_rack_gbps=one.throughput_gbps,
            two_racks_gbps=two.throughput_gbps,
        )
    return result
