"""Mini-Hadoop: a map/reduce framework with combiners.

The engine executes real jobs (map -> combine -> shuffle -> reduce) and
measures byte volumes at every stage using the binary wire format, so
aggregation output ratios fed to the testbed emulator are *measured*,
not assumed.  The five benchmark jobs of §4.2.2 are provided.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.apps.hadoop.benchmarks": [
        "BENCHMARKS", "adpredictor_job", "pagerank_job", "terasort_job",
        "uservisits_job", "wordcount_job",
    ],
    "repro.apps.hadoop.data": [
        "generate_adpredictor_logs", "generate_graph", "generate_text",
        "generate_uservisits", "generate_terasort_records",
    ],
    "repro.apps.hadoop.engine": ["MapReduceEngine", "PhaseStats"],
    "repro.apps.hadoop.iterative": ["PageRankResult", "pagerank"],
    "repro.apps.hadoop.job": ["JobSpec"],
})
