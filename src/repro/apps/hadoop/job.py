"""Job specifications for the mini map/reduce framework.

A job mirrors Hadoop's programming model: a mapper emitting key/value
pairs, an optional combiner (the associative/commutative aggregation
NetAgg executes on-path), and a reducer.  Values are integers on the
wire (the binary KeyValue record); jobs needing richer values encode
them (AdPredictor packs clicks/impressions into one integer, TeraSort
carries payload keys).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

#: A mapper takes one input record and yields (key, value) pairs.
Mapper = Callable[[object], Iterable[Tuple[str, int]]]
#: A reducer/combiner folds the values of one key.
Reducer = Callable[[str, List[int]], int]


@dataclass(frozen=True)
class JobSpec:
    """One map/reduce job.

    Attributes:
        name: benchmark name (WC, AP, PR, UV, TS).
        mapper: record -> iterable of (key, value).
        reducer: per-key reduction at the reducer.
        combiner: optional per-key reduction usable on partial data; must
            be associative and commutative.  ``None`` means the job
            cannot be aggregated on-path (TeraSort).
        cpu_factor: relative reduce-side CPU cost (AdPredictor is
            compute-intensive, §4.2.2).
        description: one line for reports.
    """

    name: str
    mapper: Mapper
    reducer: Reducer
    combiner: Optional[Reducer] = None
    cpu_factor: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.cpu_factor <= 0:
            raise ValueError("cpu_factor must be positive")

    @property
    def aggregatable(self) -> bool:
        return self.combiner is not None


@dataclass
class Counters:
    """Hadoop-style job counters, filled in by the engine."""

    map_input_records: int = 0
    map_output_records: int = 0
    map_output_bytes: float = 0.0
    combine_output_records: int = 0
    combine_output_bytes: float = 0.0
    shuffle_bytes: float = 0.0
    reduce_output_records: int = 0
    reduce_output_bytes: float = 0.0
    spilled_records: int = 0
