"""Fig. 24 -- shuffle+reduce time vs intermediate data size.

Fixed output ratio, growing intermediate data (2 -> 16 GB): the shuffle
dominates more as data grows, so NetAgg's speed-up rises (the paper
reports up to ~5x at the largest size).
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

DATA_SIZES_GB = (2, 4, 8, 16)

_QUICK = dict(sizes_gb=(2, 16))


@register("fig24")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    return _sweep(**(_QUICK if scale.name == "quick" else {}))


def _sweep(sizes_gb=DATA_SIZES_GB, alpha: float = 0.10,
           config: TestbedConfig = TestbedConfig()) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig24",
        description="WordCount shuffle+reduce time (s) vs intermediate "
                    f"data size, alpha={alpha:.0%}",
        columns=("size_gb", "plain_srt_s", "netagg_srt_s", "speedup"),
    )
    emulation = HadoopEmulation(config)
    profile = JobProfile("WC", output_ratio=alpha, cpu_factor=1.0,
                         aggregatable=True)
    for size_gb in sizes_gb:
        nbytes = size_gb * GB
        plain = emulation.run(profile, nbytes, use_netagg=False)
        netagg = emulation.run(profile, nbytes, use_netagg=True)
        result.add_row(
            size_gb=size_gb,
            plain_srt_s=plain.shuffle_reduce_seconds,
            netagg_srt_s=netagg.shuffle_reduce_seconds,
            speedup=(plain.shuffle_reduce_seconds
                     / netagg.shuffle_reduce_seconds),
        )
    return result
