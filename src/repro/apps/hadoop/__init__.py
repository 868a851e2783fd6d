"""Mini-Hadoop: a map/reduce framework with combiners.

The engine executes real jobs (map -> combine -> shuffle -> reduce) and
measures byte volumes at every stage using the binary wire format, so
aggregation output ratios fed to the testbed emulator are *measured*,
not assumed.  The five benchmark jobs of §4.2.2 are provided.
"""

from repro.apps.hadoop.benchmarks import (
    BENCHMARKS,
    adpredictor_job,
    pagerank_job,
    terasort_job,
    uservisits_job,
    wordcount_job,
)
from repro.apps.hadoop.data import (
    generate_adpredictor_logs,
    generate_graph,
    generate_text,
    generate_uservisits,
    generate_terasort_records,
)
from repro.apps.hadoop.engine import MapReduceEngine, PhaseStats
from repro.apps.hadoop.job import JobSpec
from repro.apps.hadoop.pagerank import PageRankResult, pagerank

__all__ = [
    "JobSpec",
    "MapReduceEngine",
    "PhaseStats",
    "pagerank",
    "PageRankResult",
    "BENCHMARKS",
    "wordcount_job",
    "adpredictor_job",
    "pagerank_job",
    "uservisits_job",
    "terasort_job",
    "generate_text",
    "generate_adpredictor_logs",
    "generate_graph",
    "generate_uservisits",
    "generate_terasort_records",
]
