"""Fig. 22 -- Hadoop benchmarks: shuffle+reduce time and box rate.

Runs the five *real* mini-Hadoop benchmarks on sample inputs to measure
their output ratios, then emulates shuffle+reduce on the testbed at
gigabyte scale.  Paper shape: up to ~5x speed-up for reduction-friendly
jobs (WC, UV, PR), modest for compute-bound AP, none for TeraSort.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.apps.hadoop.benchmarks import (
    adpredictor_job,
    pagerank_job,
    terasort_job,
    uservisits_job,
    wordcount_job,
)
from repro.apps.hadoop.data import (
    generate_adpredictor_logs,
    generate_graph,
    generate_terasort_records,
    generate_text,
    generate_uservisits,
)
from repro.cluster.deployment import TestbedConfig
from repro.cluster.hadoop_driver import (
    HadoopEmulation,
    JobProfile,
    measure_job_profile,
)
from repro.experiments import register
from repro.experiments.common import (
    DEFAULT,
    ExperimentResult,
    SimScale,
)
from repro.units import GB


def _splits(data: Sequence, n: int = 10) -> List[Sequence]:
    size = max(1, len(data) // n)
    chunks = [data[i:i + size] for i in range(0, len(data), size)]
    return chunks[:n] if len(chunks) > n else chunks


def measure_profiles(seed: int = 1) -> List[JobProfile]:
    """Profiles of the five benchmarks from real (small) runs."""
    inputs = [
        (wordcount_job(), generate_text(800, seed=seed)),
        (adpredictor_job(), generate_adpredictor_logs(3000, seed=seed)),
        (pagerank_job(), generate_graph(800, seed=seed)),
        (uservisits_job(), generate_uservisits(3000, seed=seed)),
        (terasort_job(), generate_terasort_records(3000, seed=seed)),
    ]
    return [
        measure_job_profile(job, _splits(data), use_combiner=False)
        for job, data in inputs
    ]


@register("fig22")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    # The five-benchmark sweep is already CI-fast; every scale runs the
    # paper configuration.
    return _sweep(seed=seed)


def _sweep(intermediate_bytes: float = 2 * GB, seed: int = 1,
           config: TestbedConfig = TestbedConfig()) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig22",
        description="Hadoop shuffle+reduce time (relative to plain) and "
                    "agg box rate, 2 GB intermediate data",
        columns=("job", "measured_alpha", "plain_srt_s", "netagg_srt_s",
                 "relative_srt", "agg_time_s", "box_gbps"),
        notes="profiles measured from real mini-Hadoop runs",
    )
    emulation = HadoopEmulation(config)
    for profile in measure_profiles(seed=seed):
        plain = emulation.run(profile, intermediate_bytes,
                              use_netagg=False)
        if profile.aggregatable:
            netagg = emulation.run(profile, intermediate_bytes,
                                   use_netagg=True)
            netagg_srt = netagg.shuffle_reduce_seconds
            agg_time = netagg.agg_seconds
            box_rate = netagg.box_processing_gbps
        else:
            # TeraSort: no combiner, NetAgg cannot help; report plain.
            netagg_srt = plain.shuffle_reduce_seconds
            agg_time = 0.0
            box_rate = 0.0
        result.add_row(
            job=profile.name,
            measured_alpha=profile.output_ratio,
            plain_srt_s=plain.shuffle_reduce_seconds,
            netagg_srt_s=netagg_srt,
            relative_srt=netagg_srt / plain.shuffle_reduce_seconds,
            agg_time_s=agg_time,
            box_gbps=box_rate,
        )
    return result
