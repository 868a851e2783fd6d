"""The five benchmark jobs of §4.2.2.

- **WordCount (WC)** -- unique-word counting; classic sum combiner.
- **AdPredictor (AP)** -- click-through prediction from search logs:
  per-feature click/impression counts (the associative statistic behind
  the Bayesian update), compute-intensive.
- **PageRank (PR)** -- one rank-propagation iteration; contributions to
  a page sum associatively.
- **UserVisits (UV)** -- ad revenue per source IP from web logs; sums
  revenue in cents.
- **TeraSort (TS)** -- identity map/reduce over fixed-width keys; *no
  combiner* (sorting reduces nothing -- the paper's no-benefit case).

Values are integers on the wire; AP packs (clicks, impressions) into a
single integer (clicks * 2^32 + impressions) so the pair still sums
associatively.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.apps.hadoop.job import JobSpec

_AP_SHIFT = 32
_AP_MASK = (1 << _AP_SHIFT) - 1


def pack_clicks(clicks: int, impressions: int) -> int:
    """Pack a (clicks, impressions) pair into one summable integer."""
    if clicks < 0 or impressions < 0:
        raise ValueError("counts must be >= 0")
    if impressions > _AP_MASK:
        raise ValueError("impression count overflows the packing")
    return (clicks << _AP_SHIFT) | impressions


def _sum_reducer(_key: str, values: List[int]) -> int:
    return sum(values)


def wordcount_job() -> JobSpec:
    def mapper(line: str) -> Iterable[Tuple[str, int]]:
        for word in line.split():
            yield word, 1

    return JobSpec(
        name="WC",
        mapper=mapper,
        reducer=_sum_reducer,
        combiner=_sum_reducer,
        description="count unique words in text",
    )


def adpredictor_job() -> JobSpec:
    def mapper(record: Tuple[Tuple[str, ...], bool]
               ) -> Iterable[Tuple[str, int]]:
        features, clicked = record
        for feature in features:
            yield feature, pack_clicks(1 if clicked else 0, 1)

    return JobSpec(
        name="AP",
        mapper=mapper,
        reducer=_sum_reducer,
        combiner=_sum_reducer,
        cpu_factor=12.0,  # the paper: AP is compute-intensive (only 1.9x)
        description="click-through prediction from search logs",
    )


def pagerank_job(ranks: Dict[int, float] = None,
                 damping: float = 0.85,
                 scale: int = 1_000_000) -> JobSpec:
    """One PageRank iteration.

    ``ranks`` holds the previous iteration's ranks (default: uniform 1.0
    per node).  Ranks travel as micro-units (rank * scale) so values stay
    integers on the wire.
    """
    ranks = ranks or {}

    def mapper(record: Tuple[int, List[int]]) -> Iterable[Tuple[str, int]]:
        node, targets = record
        rank = ranks.get(node, 1.0)
        if targets:
            share = int(rank * scale / len(targets))
            for target in targets:
                yield f"n{target}", share

    def reducer(_key: str, values: List[int]) -> int:
        base = int((1.0 - damping) * scale)
        return base + int(damping * sum(values))

    return JobSpec(
        name="PR",
        mapper=mapper,
        reducer=reducer,
        combiner=_sum_reducer,  # contributions sum; damping at the end
        description="one PageRank iteration over a web graph",
    )


def uservisits_job() -> JobSpec:
    def mapper(record: Tuple[str, float]) -> Iterable[Tuple[str, int]]:
        ip, revenue = record
        prefix = ".".join(ip.split(".")[:2])  # aggregate per /16 prefix
        yield prefix, int(round(revenue * 100))  # cents

    return JobSpec(
        name="UV",
        mapper=mapper,
        reducer=_sum_reducer,
        combiner=_sum_reducer,
        description="ad revenue per source-IP prefix from web logs",
    )


def terasort_job() -> JobSpec:
    def mapper(key: str) -> Iterable[Tuple[str, int]]:
        yield key, 1

    def reducer(_key: str, values: List[int]) -> int:
        # Identity reduce: sorting moves data, it does not shrink it.
        return sum(values)

    return JobSpec(
        name="TS",
        mapper=mapper,
        reducer=reducer,
        combiner=None,  # not aggregatable: the no-benefit case
        description="sorting benchmark with an identity reduce",
    )


#: Name -> factory for all five benchmarks.
BENCHMARKS = {
    "WC": wordcount_job,
    "AP": adpredictor_job,
    "PR": pagerank_job,
    "UV": uservisits_job,
    "TS": terasort_job,
}
