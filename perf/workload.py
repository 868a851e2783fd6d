"""What a benchmark workload has to provide to the measuring loop."""

from __future__ import annotations

import resource
import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from calibrate import PairedTimer, Sample
from trace import Recorder


def peak_rss_kb() -> int:
    """This process's ``ru_maxrss`` (kilobytes on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class TraceRun:
    """What a traced run hands to :meth:`Workload.probes`."""

    rec: Recorder               #: the run's span recorder
    timer: PairedTimer          #: times the probes' own units
    spans_ms: Dict[str, float]  #: the span-derived metrics so far
    samples: List[Sample]       #: the run's untraced units


class Workload:
    """One set of inputs and the calls that run them.

    The measuring loop (``child.py``) cycles over ``units`` distinct
    inputs; every repeat of a unit replays exactly the same input, so
    repeats differ only by machine noise.
    """

    #: Number of distinct inputs.
    units = 1
    #: The fixed amount of work every run does whatever the machine's
    #: speed: at least this many units are run, and peak RSS is read
    #: when exactly this many are done, so memory is comparable.
    min_samples = 1
    #: span name -> per-layer metric it feeds (ms per pass over inputs).
    span_metrics: Dict[str, str] = {}

    def __init__(self) -> None:
        self._digests: Dict[int, int] = {}

    def setup(self, seed: int) -> None:
        """Build the inputs from ``seed`` and warm up; ends "ready"."""
        raise NotImplementedError

    def run_unit(self, unit: int, rec) -> object:
        """The timed call.  ``rec`` is the span recorder (``trace.NULL``
        when tracing is off)."""
        raise NotImplementedError

    def check(self, unit: int, result: object,
              ) -> Tuple[int, int, Sequence[float]]:
        """Untimed: verify ``result``; -> (ops, failed ops, latencies)."""
        raise NotImplementedError

    def probes(self, run: TraceRun) -> Dict[str, float]:
        """Traced run only: the per-layer metrics that the spans of
        :meth:`run_unit` alone cannot give."""
        return {}

    def close(self) -> None:
        """Release what :meth:`setup` opened."""

    # -- result digests ---------------------------------------------------

    def same_digest(self, unit: int, digest: int) -> bool:
        """True when ``unit`` produced the digest it produced before: a
        deterministic program must answer a replayed input identically."""
        return self._digests.setdefault(unit, digest) == digest

    def digest(self) -> int:
        """CRC over every unit's first digest, in unit order."""
        crc = 0
        for unit in sorted(self._digests):
            crc = zlib.crc32(self._digests[unit].to_bytes(8, "little"), crc)
        return crc
