"""Fig. 21 -- throughput vs active CPU cores on one agg box.

The cheap ``sample`` function is network-bound (flat once a few cores
deserialise fast enough); ``categorise`` scales linearly with cores --
the data-parallel local tree exploits them all.
"""

from __future__ import annotations

from repro.aggbox.functions import CATEGORISE_CPU_FACTOR, SAMPLE_CPU_FACTOR
from repro.cluster.deployment import TestbedConfig
from repro.cluster.solr_driver import SolrEmulation, SolrEmulationParams
from repro.experiments import register
from repro.experiments.common import (
    DEFAULT,
    ExperimentResult,
    SimScale,
)

CORES = (2, 4, 8, 12, 16)

_QUICK = dict(cores=(2, 4, 16), duration=5.0)


@register("fig21")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    return _sweep(seed=seed, **(_QUICK if scale.name == "quick" else {}))


def _sweep(cores=CORES, n_clients: int = 70,
           duration: float = 10.0, seed: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig21",
        description="agg box throughput (Gbps) vs CPU cores",
        columns=("cores", "sample_gbps", "categorise_gbps"),
    )
    for n_cores in cores:
        config = TestbedConfig(box_cores=n_cores)
        sample = SolrEmulation(config, SolrEmulationParams(
            n_clients=n_clients, duration=duration, seed=seed, use_netagg=True,
            agg_cpu_factor=SAMPLE_CPU_FACTOR)).run()
        categorise = SolrEmulation(config, SolrEmulationParams(
            n_clients=n_clients, duration=duration, seed=seed, use_netagg=True,
            agg_cpu_factor=CATEGORISE_CPU_FACTOR)).run()
        result.add_row(
            cores=n_cores,
            sample_gbps=sample.throughput_gbps,
            categorise_gbps=categorise.throughput_gbps,
        )
    return result
