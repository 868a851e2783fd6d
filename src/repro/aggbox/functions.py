"""Aggregation functions hosted by agg boxes.

Every function is associative and commutative (§2.1): it exposes a
``merge`` over real Python values -- so the apps genuinely compute
results through NetAgg -- plus a cost model used by the performance
simulations:

- ``cpu_seconds(input_bytes, core_rate)`` -- processing time of one merge
  on one core;
- ``output_bytes(input_bytes_list)`` -- size of the merged output.

The two testbed functions of §4.2.1 are here: ``sample`` (cheap,
output-ratio-controlled) and ``categorise`` (CPU-intensive
classification), alongside the classic associative reducers (top-k, sum,
max, combiner-style dictionary merge).
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.units import MB
from repro.wire.records import KeyValue, SearchResult

#: Default per-core processing rate for cheap streaming merges, in
#: bytes/second.  Calibrated so a 16-core box sustains ~10 Gbps, matching
#: the prototype's 9.2 Gbps measured aggregate rate.
DEFAULT_CORE_RATE = 80 * MB


class AggregationFunction(ABC):
    """One application-provided aggregation function."""

    #: Short name, used in schedulers and experiment rows.
    name: str = "abstract"
    #: Relative CPU cost multiplier (1.0 = cheap streaming merge).
    cpu_factor: float = 1.0

    @abstractmethod
    def merge(self, items: Sequence[Any]) -> Any:
        """Aggregate partial results into one (associative/commutative)."""

    @abstractmethod
    def output_bytes(self, input_sizes: Sequence[float]) -> float:
        """Modelled output size for the given input sizes."""

    def cpu_seconds(self, input_bytes: float,
                    core_rate: float = DEFAULT_CORE_RATE) -> float:
        """One-core processing time for ``input_bytes`` of input."""
        if input_bytes < 0:
            raise ValueError("input_bytes must be >= 0")
        return self.cpu_factor * input_bytes / core_rate

    def identity(self) -> Any:
        """The neutral element (merge of nothing)."""
        return self.merge([])


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

    def output_bytes(self, input_sizes: Sequence[float]) -> float:
        if not input_sizes:
            return 0.0
        # Each input is itself a top-k list; output is one top-k list.
        return max(input_sizes)


class CombinerFunction(AggregationFunction):
    """Hadoop combiner semantics: merge key->count dictionaries.

    Wraps the application's ``Combiner.reduce(key, values)`` interface:
    ``reduce`` defaults to summation but can be overridden per job.
    The output-size model is the saturating dictionary of DESIGN.md,
    parameterised by the job's output ratio over total intermediate data.
    """

    name = "combiner"

    def __init__(self, alpha: float = 0.1, total_bytes: float = 0.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.total_bytes = total_bytes

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

    def output_bytes(self, input_sizes: Sequence[float]) -> float:
        total_in = sum(input_sizes)
        if self.total_bytes > 0:
            return min(total_in, self.alpha * self.total_bytes)
        return self.alpha * total_in


class SampleFunction(AggregationFunction):
    """The paper's cheap ``sample`` function: keep an alpha fraction.

    Deterministic: keeps every ceil(1/alpha)-th item, which makes tests
    reproducible while preserving the output ratio.  Sub-sampling is
    cheaper than merge work (no dictionary to maintain), hence the
    sub-unit CPU factor -- this is what makes the function network-bound
    across core counts in Fig. 21.
    """

    name = "sample"
    cpu_factor = 0.25

    def __init__(self, alpha: float = 0.05) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha

    def merge(self, items: Sequence[List[Any]]) -> List[Any]:
        merged: List[Any] = []
        for partial in items:
            merged.extend(partial)
        if not merged:
            return []
        keep = max(1, round(len(merged) * self.alpha))
        stride = max(1, len(merged) // keep)
        return merged[::stride][:keep]

    def output_bytes(self, input_sizes: Sequence[float]) -> float:
        return self.alpha * sum(input_sizes)


class CategoriseFunction(AggregationFunction):
    """The paper's CPU-intensive ``categorise`` function.

    Classifies documents into base categories by scanning their content
    for category markers and returns the top-k per category.  The CPU
    factor reflects that parsing dominates: the paper's Fig. 21 shows it
    scaling linearly with cores instead of saturating the link.
    """

    name = "categorise"
    cpu_factor = 12.0

    def __init__(self, categories: Sequence[str] = (), k: int = 5) -> None:
        self.categories = tuple(categories) or (
            "science", "history", "geography", "arts", "sports",
        )
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def classify(self, text: str) -> str:
        """The majority base category of the category strings in text."""
        counts = {c: text.lower().count(c) for c in self.categories}
        best = max(counts.items(), key=lambda kv: (kv[1], kv[0]))
        return best[0] if best[1] > 0 else self.categories[0]

    def merge(self, items: Sequence[List[Tuple[str, float, str]]]
              ) -> List[Tuple[str, float, str]]:
        """Merge (doc_text, score, category?) partials into top-k/category.

        Accepts items whose category field may be empty -- classification
        happens here, on the box, as in the paper.
        """
        per_category: Dict[str, List[Tuple[float, str, str]]] = {}
        for partial in items:
            for entry in partial:
                text, score = entry[0], entry[1]
                category = entry[2] if len(entry) > 2 and entry[2] else \
                    self.classify(text)
                per_category.setdefault(category, []).append(
                    (score, text, category)
                )
        out: List[Tuple[str, float, str]] = []
        for category in sorted(per_category):
            best = heapq.nlargest(self.k, per_category[category])
            out.extend((text, score, category) for score, text, category in best)
        return out

    def output_bytes(self, input_sizes: Sequence[float]) -> float:
        # Top-k per category: bounded by a constant slice of the input.
        total = sum(input_sizes)
        bound = self.k * len(self.categories) * 1_000.0
        return min(total, bound)


class SumFunction(AggregationFunction):
    """Scalar sum -- the extreme n-to-1 reduction."""

    name = "sum"

    def merge(self, items: Sequence[float]) -> float:
        return float(sum(items))

    def output_bytes(self, input_sizes: Sequence[float]) -> float:
        return 8.0 if input_sizes else 0.0


class MaxFunction(AggregationFunction):
    """Scalar max -- another extreme n-to-1 reduction."""

    name = "max"

    def merge(self, items: Sequence[float]) -> float:
        values = list(items)
        if not values:
            return float("-inf")
        return float(max(values))

    def output_bytes(self, input_sizes: Sequence[float]) -> float:
        return 8.0 if input_sizes else 0.0
