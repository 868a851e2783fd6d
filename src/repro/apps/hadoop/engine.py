"""The map/reduce execution engine.

Runs a :class:`repro.apps.hadoop.job.JobSpec` over input splits through
the classic phases -- map, combine, shuffle (partition by key hash),
reduce -- computing real results while measuring byte volumes at each
stage with the binary wire codec.  Those measurements (per-job output
ratios, shuffle sizes) parameterise the testbed emulation of Figs 22-24.

Aggregation paths: with ``on_path_levels > 0`` the engine inserts that
many intermediate combine stages between mappers and the reducer,
emulating NetAgg's aggregation tree; byte counts at each level are
reported so the traffic reduction per hop is observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.apps.hadoop.job import Counters, JobSpec
from repro.netsim.routing import stable_hash
from repro.wire.records import KeyValue, encode_kv_stream

#: Reducers the shuffle partitions intermediate keys over.
N_REDUCERS = 1


@dataclass
class PhaseStats:
    """Byte volumes observed at each stage of one run."""

    map_output_bytes: float
    #: Bytes leaving each on-path combine level (index 0 = closest to
    #: the mappers); empty when no on-path aggregation was used.
    level_bytes: List[float]
    shuffle_bytes: float
    output_bytes: float
    #: Reducer outputs, sorted by key (TeraSort's contract).
    output_pairs: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def output_ratio(self) -> float:
        if self.map_output_bytes <= 0:
            return 1.0
        return self.output_bytes / self.map_output_bytes


def _encode_size(pairs: Sequence[Tuple[str, int]]) -> float:
    """Wire size of a key/value batch (measured, not modelled)."""
    return float(len(encode_kv_stream(
        [KeyValue(k, v) for k, v in pairs]
    )))


def _combine(pairs: Iterable[Tuple[str, int]], reducer) -> List[Tuple[str, int]]:
    grouped: Dict[str, List[int]] = {}
    for key, value in pairs:
        grouped.setdefault(key, []).append(value)
    return [(key, reducer(key, values)) for key, values in
            sorted(grouped.items())]


class MapReduceEngine:
    """Single-process execution of map/reduce jobs with real data.

    Intermediate keys go to :data:`N_REDUCERS` reducers by Hadoop's
    default hash partitioner; the reducer outputs are then sorted by key.
    """

    def run(
        self,
        job: JobSpec,
        splits: Sequence[Sequence[object]],
        use_combiner: bool = True,
        on_path_levels: int = 0,
        counters: Optional[Counters] = None,
    ) -> Tuple[Dict[str, int], PhaseStats]:
        """Execute ``job`` over ``splits``; returns (result, stats).

        ``on_path_levels`` inserts NetAgg-style combine stages: mapper
        outputs are merged pairwise per level before the final shuffle.
        ``use_combiner=False`` disables even the per-mapper combine
        (plain Hadoop without combiners).
        """
        if on_path_levels < 0:
            raise ValueError("on_path_levels must be >= 0")
        if on_path_levels and not job.aggregatable:
            raise ValueError(
                f"job {job.name!r} has no combiner; cannot aggregate on-path"
            )
        counters = counters if counters is not None else Counters()

        # -- map phase -------------------------------------------------------
        map_outputs: List[List[Tuple[str, int]]] = []
        for split in splits:
            pairs: List[Tuple[str, int]] = []
            for record in split:
                counters.map_input_records += 1
                pairs.extend(job.mapper(record))
            counters.map_output_records += len(pairs)
            if use_combiner and job.combiner is not None:
                pairs = _combine(pairs, job.combiner)
                counters.combine_output_records += len(pairs)
            map_outputs.append(pairs)
        map_bytes = sum(_encode_size(p) for p in map_outputs)
        counters.map_output_bytes = map_bytes

        # -- on-path aggregation levels --------------------------------------
        level_bytes: List[float] = []
        current = map_outputs
        for _level in range(on_path_levels):
            if len(current) == 1:
                break
            merged: List[List[Tuple[str, int]]] = []
            for i in range(0, len(current), 2):
                group = [p for part in current[i:i + 2] for p in part]
                merged.append(_combine(group, job.combiner))
            current = merged
            level_bytes.append(sum(_encode_size(p) for p in current))

        # -- shuffle ---------------------------------------------------------
        shuffle_bytes = sum(_encode_size(p) for p in current)
        counters.shuffle_bytes = shuffle_bytes
        partitions: List[List[Tuple[str, int]]] = [
            [] for _ in range(N_REDUCERS)
        ]
        for part in current:
            for key, value in part:
                partitions[stable_hash(key) % N_REDUCERS].append(
                    (key, value))

        # -- reduce ----------------------------------------------------------
        result: Dict[str, int] = {}
        output_pairs: List[Tuple[str, int]] = []
        for partition in partitions:
            reduced = _combine(partition, job.reducer)
            output_pairs.extend(reduced)
            for key, value in reduced:
                result[key] = value
        output_pairs.sort()
        output_bytes = _encode_size(output_pairs)
        counters.reduce_output_records = len(output_pairs)
        counters.reduce_output_bytes = output_bytes

        stats = PhaseStats(
            map_output_bytes=map_bytes,
            level_bytes=level_bytes,
            shuffle_bytes=shuffle_bytes,
            output_bytes=output_bytes,
            output_pairs=output_pairs,
        )
        return result, stats
