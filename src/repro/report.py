"""Terminal-friendly rendering of experiment results.

Pure text (no plotting dependencies, works over SSH):
:func:`sparkline` draws a one-line trend and :func:`summarise` one
sparkline per numeric column.  Used by ``python -m repro run --plot``.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import ExperimentResult

_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """Render a sequence as a one-line unicode sparkline."""
    if not values:
        return ""
    low = min(values)
    high = max(values)
    span = (high - low) or 1.0
    return "".join(
        _SPARK[min(len(_SPARK) - 1,
                   int((v - low) / span * (len(_SPARK) - 1)))]
        for v in values
    )


def summarise(result: ExperimentResult) -> str:
    """One sparkline per numeric column (a compact run overview).

    When the result carries a trace diagnosis
    (``repro.obs.analyze``, attached by ``python -m repro analyze``)
    a bottleneck-breakdown section follows: per run, the top links by
    busy fraction and the critical path's category fractions.
    """
    lines = [f"{result.experiment}: {result.description}"]
    for column in result.columns:
        if not _is_numeric(result, column):
            continue
        values = [float(row[column]) for row in result.rows]
        lines.append(
            f"  {column:24s} {sparkline(values)}  "
            f"[{min(values):.3g} .. {max(values):.3g}]"
        )
    breakdown = _bottleneck_breakdown(result)
    if breakdown:
        lines.append(breakdown)
    return "\n".join(lines)


def _bottleneck_breakdown(result: ExperimentResult, top: int = 3) -> str:
    """Bottleneck section rendered from an attached diagnosis dict."""
    runs = (result.diagnosis or {}).get("runs", [])
    if not runs:
        return ""
    lines = ["bottlenecks:"]
    for run in runs:
        timeline = run.get("timeline", {})
        label = run.get("strategy") or "(unlabelled)"
        lines.append(f"  {label}: dominant tier "
                     f"{timeline.get('dominant_tier', '?')}")
        ranked = sorted(timeline.get("links", []),
                        key=lambda s: (-float(s.get("busy_frac", 0.0)),
                                       str(s.get("link", ""))))
        for stats in ranked[:top]:
            lines.append(
                f"    {str(stats.get('link', '')):24s} "
                f"[{str(stats.get('tier', '')):4s}] "
                f"busy {float(stats.get('busy_frac', 0.0)):6.1%}  "
                f"p99 util {float(stats.get('p99_util', 0.0)):6.1%}  "
                f"cp {float(stats.get('cp_seconds', 0.0)):.3f}s")
        fractions = (run.get("critical_path") or {}).get("fractions", {})
        if fractions:
            parts = "  ".join(f"{cat} {float(frac):.1%}"
                              for cat, frac in fractions.items())
            lines.append(f"    critical path: {parts}")
    return "\n".join(lines)


def _is_numeric(result: ExperimentResult, column: str) -> bool:
    return all(
        isinstance(row[column], (int, float)) and
        not isinstance(row[column], bool)
        for row in result.rows
    ) and bool(result.rows)
