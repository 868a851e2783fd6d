"""Fig. 17 -- Solr 99th-percentile response latency vs clients.

Plain Solr's latency climbs steeply once the frontend link saturates;
NetAgg serves far higher load at low latency by keeping that link clear.
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
from repro.experiments.fig16_solr_throughput import CLIENTS

_QUICK = dict(clients=(50,), duration=5.0)


@register("fig17")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    return _sweep(**(_QUICK if scale.name == "quick" else {}))


def _sweep(clients=CLIENTS, duration: float = 10.0,
           config: TestbedConfig = TestbedConfig()) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig17",
        description="Solr 99th-pct response latency (s) vs clients",
        columns=("clients", "solr_p99_s", "netagg_p99_s"),
    )
    for n_clients in clients:
        plain = SolrEmulation(config, SolrEmulationParams(
            n_clients=n_clients, duration=duration)).run()
        netagg = SolrEmulation(config, SolrEmulationParams(
            n_clients=n_clients, duration=duration, use_netagg=True)).run()
        result.add_row(
            clients=n_clients,
            solr_p99_s=plain.p99_latency,
            netagg_p99_s=netagg.p99_latency,
        )
    return result
