"""Fig. 20 -- agg-box scale-out for CPU-intensive aggregation.

With the ``categorise`` function the box CPU is the bottleneck;
attaching a second box to the same switch (requests hash-split between
them) doubles throughput until the network binds.
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
from repro.aggbox.functions import CategoriseFunction

CLIENTS = (10, 30, 50, 70, 90)

_QUICK = dict(clients=(70,), duration=5.0)


@register("fig20")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    return _sweep(**(_QUICK if scale.name == "quick" else {}))


def _sweep(clients=CLIENTS, duration: float = 10.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig20",
        description="categorise throughput (Gbps): one vs two boxes "
                    "per switch",
        columns=("clients", "one_box_gbps", "two_boxes_gbps"),
    )
    cpu_factor = CategoriseFunction.cpu_factor
    for n_clients in clients:
        one = SolrEmulation(
            TestbedConfig(boxes_per_rack=1),
            SolrEmulationParams(n_clients=n_clients, duration=duration,
                                use_netagg=True, agg_cpu_factor=cpu_factor),
        ).run()
        two = SolrEmulation(
            TestbedConfig(boxes_per_rack=2),
            SolrEmulationParams(n_clients=n_clients, duration=duration,
                                use_netagg=True, agg_cpu_factor=cpu_factor),
        ).run()
        result.add_row(
            clients=n_clients,
            one_box_gbps=one.throughput_gbps,
            two_boxes_gbps=two.throughput_gbps,
        )
    return result
