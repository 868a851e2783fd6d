"""Fig. 23 -- WordCount shuffle+reduce time vs output ratio.

The output ratio is controlled the way the paper does it -- "by varying
the repetition of words in the input" (our vocabulary-size knob) -- and
*measured* from real runs before emulating at scale.  NetAgg's benefit
is largest at small ratios and fades as aggregation stops shrinking
data.
"""

from __future__ import annotations

from repro.apps.hadoop.benchmarks import wordcount_job
from repro.apps.hadoop.data import generate_text
from repro.cluster.deployment import TestbedConfig
from repro.cluster.hadoop_driver import HadoopEmulation, measure_job_profile
from repro.experiments import register
from repro.experiments.common import (
    DEFAULT,
    ExperimentResult,
    SimScale,
)
from repro.experiments.fig22_hadoop_jobs import _splits
from repro.units import GB

#: Vocabulary sizes spanning high to low word repetition.
VOCABULARIES = (20, 100, 500, 2500, 12500)

_QUICK = dict(vocabularies=(20, 12500))


@register("fig23")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    return _sweep(seed=seed, **(_QUICK if scale.name == "quick" else {}))


def _sweep(vocabularies=VOCABULARIES, intermediate_bytes: float = 2 * GB,
           seed: int = 1, config: TestbedConfig = TestbedConfig()
           ) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig23",
        description="WordCount shuffle+reduce vs measured output ratio",
        columns=("vocabulary", "measured_alpha", "plain_srt_s",
                 "netagg_srt_s", "relative_srt"),
    )
    emulation = HadoopEmulation(config)
    for vocabulary in vocabularies:
        text = generate_text(800, vocabulary=vocabulary, seed=seed)
        profile = measure_job_profile(wordcount_job(), _splits(text),
                                      use_combiner=False)
        plain = emulation.run(profile, intermediate_bytes, use_netagg=False)
        netagg = emulation.run(profile, intermediate_bytes, use_netagg=True)
        result.add_row(
            vocabulary=vocabulary,
            measured_alpha=profile.output_ratio,
            plain_srt_s=plain.shuffle_reduce_seconds,
            netagg_srt_s=netagg.shuffle_reduce_seconds,
            relative_srt=(netagg.shuffle_reduce_seconds
                          / plain.shuffle_reduce_seconds),
        )
    return result
