"""Ablation -- how many reducers does NetAgg's Hadoop win survive?

The paper's Hadoop deployment uses a single reducer (the worst case for
shuffle incast, and the case where on-path aggregation shines).  More
reducers parallelise the plain shuffle across inbound links, eroding
NetAgg's relative advantage -- this ablation quantifies the crossover.
"""

from __future__ import annotations

from repro.cluster.deployment import TestbedConfig
from repro.cluster.hadoop_driver import HadoopEmulation, JobProfile
from repro.experiments import register
from repro.experiments.common import (
    DEFAULT,
    ExperimentResult,
    SimScale,
)
from repro.units import GB

REDUCER_COUNTS = (1, 2, 4, 8)


_QUICK = dict(reducer_counts=(1, 4))


@register("ablation_reducers")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    return _sweep(**(_QUICK if scale.name == "quick" else {}))


def _sweep(reducer_counts=REDUCER_COUNTS, alpha: float = 0.10,
           intermediate_bytes: float = 4 * GB,
           config: TestbedConfig = TestbedConfig()) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation-reducers",
        description="WordCount shuffle+reduce speed-up vs reducer count "
                    f"({intermediate_bytes / GB:.0f} GB, alpha={alpha:.0%})",
        columns=("n_reducers", "plain_srt_s", "netagg_srt_s", "speedup"),
    )
    emulation = HadoopEmulation(config)
    profile = JobProfile("WC", output_ratio=alpha, cpu_factor=1.0,
                         aggregatable=True)
    for n_reducers in reducer_counts:
        plain = emulation.run(profile, intermediate_bytes,
                              use_netagg=False, n_reducers=n_reducers)
        netagg = emulation.run(profile, intermediate_bytes,
                               use_netagg=True, n_reducers=n_reducers)
        result.add_row(
            n_reducers=n_reducers,
            plain_srt_s=plain.shuffle_reduce_seconds,
            netagg_srt_s=netagg.shuffle_reduce_seconds,
            speedup=(plain.shuffle_reduce_seconds
                     / netagg.shuffle_reduce_seconds),
        )
    return result
