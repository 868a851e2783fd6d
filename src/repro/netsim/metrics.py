"""Metric helpers for simulation results.

The paper reports the 99th-percentile flow completion time (FCT),
normalised against the rack-level aggregation baseline, plus CDFs of FCT
and of per-link traffic.  These helpers compute those series from
:class:`repro.netsim.simulator.SimulationResult` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.netsim.simulator import SimulationResult
from repro.units import mean, percentile


@dataclass(frozen=True)
class FctSummary:
    """Summary statistics over a set of flow completion times."""

    count: int
    mean: float
    median: float
    p99: float
    maximum: float

    @classmethod
    def of(cls, fcts: Sequence[float], context: str = "") -> "FctSummary":
        """Summary of ``fcts``; raises :class:`ValueError` when empty.

        ``context`` describes the filter that produced the (empty)
        selection, so the error names what did not match instead of
        the bare "no flows matched the filter" that used to crash
        tiny-scale / heavy-fault experiments without a clue.
        """
        if not fcts:
            detail = f" ({context})" if context else ""
            raise ValueError(f"no flows matched the filter{detail}")
        return cls(
            count=len(fcts),
            mean=mean(fcts),
            median=percentile(fcts, 50.0),
            p99=percentile(fcts, 99.0),
            maximum=max(fcts),
        )

    @classmethod
    def empty(cls) -> "FctSummary":
        """The explicit no-flows summary: count 0, NaN statistics.

        Experiments that may legitimately select nothing (tiny scales,
        heavy fault schedules) degrade to this instead of dying; NaN
        propagates visibly through derived columns.
        """
        nan = float("nan")
        return cls(count=0, mean=nan, median=nan, p99=nan, maximum=nan)


def _filter_context(result: SimulationResult,
                    kinds: Optional[Sequence[str]],
                    aggregatable: Optional[bool]) -> str:
    return (
        f"kinds={list(kinds) if kinds is not None else 'any'}, "
        f"aggregatable={'any' if aggregatable is None else aggregatable}, "
        f"simulated flows={len(result.records)}"
    )


def fct_summary(
    result: SimulationResult,
    kinds: Optional[Sequence[str]] = None,
    aggregatable: Optional[bool] = None,
    empty_ok: bool = False,
) -> FctSummary:
    """FCT summary over flows matching the filters.

    With ``empty_ok`` a selection that matches nothing returns
    :meth:`FctSummary.empty` instead of raising.
    """
    fcts = result.fcts(kinds=kinds, aggregatable=aggregatable)
    if not fcts and empty_ok:
        return FctSummary.empty()
    return FctSummary.of(
        fcts, context=_filter_context(result, kinds, aggregatable))


def relative_p99(
    result: SimulationResult,
    baseline: SimulationResult,
    aggregatable: Optional[bool] = None,
) -> float:
    """99th-pct FCT of ``result`` relative to ``baseline`` (paper's y-axis).

    Values below 1.0 mean ``result`` beats the baseline.
    """
    ours = fct_summary(result, aggregatable=aggregatable).p99
    base = fct_summary(baseline, aggregatable=aggregatable).p99
    # NaN (an empty baseline selection summarised with empty_ok
    # upstream) compares False against everything, so it would slip
    # past the <= 0 guard and silently poison every ratio downstream.
    if math.isnan(base):
        raise ValueError(
            "baseline p99 FCT is NaN; nothing to normalise "
            f"({_filter_context(baseline, None, aggregatable)})")
    if base <= 0:
        raise ValueError(
            "baseline p99 FCT is zero; nothing to normalise "
            f"({_filter_context(baseline, None, aggregatable)})")
    return ours / base


def slowdowns(result: SimulationResult, network,
              kinds: Optional[Sequence[str]] = None) -> List[float]:
    """Per-flow slowdown: FCT divided by the flow's ideal solo FCT.

    The ideal is the transfer time the flow would see alone on its path
    (size / bottleneck capacity).  Slowdown 1.0 = uncontended; the
    distribution's tail captures how much sharing hurt -- a standard
    congestion metric alongside absolute FCT.  Flows with no path or no
    bytes are skipped (their ideal is zero).
    """
    out = []
    capacities = network.capacities()
    for record in result.records.values():
        spec = record.spec
        if kinds is not None and spec.kind not in kinds:
            continue
        if not spec.path or spec.size <= 0:
            continue
        bottleneck = min(capacities[link] for link in spec.path)
        if bottleneck <= 0:
            continue  # link downed post-run; no meaningful ideal
        ideal = spec.size / bottleneck
        if ideal <= 0:
            continue
        out.append(record.fct / ideal)
    return out


def slowdown_summary(result: SimulationResult, network,
                     kinds: Optional[Sequence[str]] = None,
                     empty_ok: bool = False) -> FctSummary:
    """Summary statistics over per-flow slowdowns."""
    values = slowdowns(result, network, kinds=kinds)
    if not values and empty_ok:
        return FctSummary.empty()
    return FctSummary.of(
        values,
        context=f"slowdowns, kinds="
                f"{list(kinds) if kinds is not None else 'any'}, "
                f"simulated flows={len(result.records)}")
