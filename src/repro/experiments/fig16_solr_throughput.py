"""Fig. 16 -- Solr network throughput vs number of clients.

Plain Solr saturates its frontend's 1 Gbps link; NetAgg keeps absorbing
partial results until the agg box's 10 Gbps link fills (sample function,
α = 5% so the frontend link never binds).
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

CLIENTS = (5, 10, 20, 30, 50, 70)

_QUICK = dict(clients=(10, 50), duration=5.0)


@register("fig16")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    return _sweep(**(_QUICK if scale.name == "quick" else {}))


def _sweep(clients=CLIENTS, duration: float = 10.0,
           config: TestbedConfig = TestbedConfig()) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig16",
        description="Solr throughput (Gbps) vs clients, sample fn alpha=5%",
        columns=("clients", "solr_gbps", "netagg_gbps"),
    )
    for n_clients in clients:
        plain = SolrEmulation(config, SolrEmulationParams(
            n_clients=n_clients, duration=duration)).run()
        netagg = SolrEmulation(config, SolrEmulationParams(
            n_clients=n_clients, duration=duration, use_netagg=True)).run()
        result.add_row(
            clients=n_clients,
            solr_gbps=plain.throughput_gbps,
            netagg_gbps=netagg.throughput_gbps,
        )
    return result
