"""Fig. 18 -- Solr throughput vs output ratio α (70 clients).

Plain Solr is frontend-link bound regardless of α.  NetAgg's box->
frontend link carries α-scaled data, so its advantage shrinks as α
grows, converging to plain at α = 100%.
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

ALPHAS = (0.05, 0.10, 0.25, 0.50, 0.75, 1.00)

_QUICK = dict(alphas=(0.05, 0.5, 1.0), duration=5.0)


@register("fig18")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    return _sweep(seed=seed, **(_QUICK if scale.name == "quick" else {}))


def _sweep(alphas=ALPHAS, n_clients: int = 70, duration: float = 10.0,
           config: TestbedConfig = TestbedConfig(),
           seed: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig18",
        description="Solr throughput (Gbps) vs output ratio, 70 clients",
        columns=("alpha", "solr_gbps", "netagg_gbps"),
    )
    plain = SolrEmulation(config, SolrEmulationParams(
        n_clients=n_clients, duration=duration, seed=seed)).run()
    for alpha in alphas:
        netagg = SolrEmulation(config, SolrEmulationParams(
            n_clients=n_clients, duration=duration, seed=seed, use_netagg=True,
            alpha=alpha)).run()
        result.add_row(
            alpha=alpha,
            solr_gbps=plain.throughput_gbps,
            netagg_gbps=netagg.throughput_gbps,
        )
    return result
