"""Aggregation functions hosted by agg boxes.

Every function is associative and commutative (§2.1): it exposes a
``merge`` over real Python values -- so the apps genuinely compute
results through NetAgg -- plus ``cpu_seconds(input_bytes, core_rate)``,
the processing time of one merge on one core, for the performance
simulations.

The classic associative reducers are here (top-k, sum, combiner-style
dictionary merge).  The two testbed functions of §4.2.1,
``sample`` and ``categorise``, enter the figures only through their CPU
cost factors (:data:`SAMPLE_CPU_FACTOR`, :data:`CATEGORISE_CPU_FACTOR`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.units import MB
from repro.wire.records import KeyValue, SearchResult

#: Default per-core processing rate for cheap streaming merges, in
#: bytes/second.  Calibrated so a 16-core box sustains ~10 Gbps, matching
#: the prototype's 9.2 Gbps measured aggregate rate.
DEFAULT_CORE_RATE = 80 * MB

#: CPU cost multipliers of the paper's two testbed functions, fed to the
#: emulated box by Figs. 20/21.  ``sample`` keeps an alpha fraction,
#: cheaper than a merge (no dictionary to maintain), so it stays
#: network-bound across core counts; ``categorise`` parses documents for
#: category markers, so parsing dominates and it scales with cores.
SAMPLE_CPU_FACTOR = 0.25
CATEGORISE_CPU_FACTOR = 12.0


class AggregationFunction(ABC):
    """One application-provided aggregation function."""

    #: Short name, used in schedulers and experiment rows.
    name: str = "abstract"
    #: Relative CPU cost multiplier (1.0 = cheap streaming merge).
    cpu_factor: float = 1.0

    @abstractmethod
    def merge(self, items: Sequence[Any]) -> Any:
        """Aggregate partial results into one (associative/commutative)."""

    def cpu_seconds(self, input_bytes: float,
                    core_rate: float = DEFAULT_CORE_RATE) -> float:
        """One-core processing time for ``input_bytes`` of input."""
        if input_bytes < 0:
            raise ValueError("input_bytes must be >= 0")
        return self.cpu_factor * input_bytes / core_rate


def _rank(result: SearchResult) -> Tuple[float, int]:
    """Top-k order: higher score first, then lower doc id."""
    return (result.score, -result.doc_id)


class TopKFunction(AggregationFunction):
    """Merge scored search results, keeping the k best (Solr's merge)."""

    name = "top-k"

    def __init__(self, k: int = 10) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def merge(self, items: Sequence[List[SearchResult]]) -> List[SearchResult]:
        merged: List[SearchResult] = []
        for partial in items:
            merged.extend(partial)
        # What ``heapq.nlargest(k, merged, key=_rank)`` returns, ties in
        # input order (the sort is stable): a box merges a few dozen
        # results at most, where one sort beats a heap of them.
        merged.sort(key=_rank, reverse=True)
        del merged[self.k:]
        return merged


class CombinerFunction(AggregationFunction):
    """Hadoop combiner semantics: merge key->count dictionaries.

    Wraps the application's ``Combiner.reduce(key, values)`` interface:
    ``reduce`` defaults to summation but can be overridden per job.
    """

    name = "combiner"

    def reduce(self, key: str, values: Iterable[int]) -> int:
        """The combiner's per-key reduction (default: sum)."""
        return sum(values)

    def merge(self, items: Sequence[List[KeyValue]]) -> List[KeyValue]:
        grouped: Dict[str, List[int]] = {}
        for partial in items:
            for pair in partial:
                grouped.setdefault(pair.key, []).append(pair.value)
        return [
            KeyValue(key, self.reduce(key, values))
            for key, values in sorted(grouped.items())
        ]


class SumFunction(AggregationFunction):
    """Scalar sum -- the extreme n-to-1 reduction."""

    name = "sum"

    def merge(self, items: Sequence[float]) -> float:
        return float(sum(items))
