"""Prometheus text exposition (format 0.0.4) of the live telemetry.

:func:`render_prometheus` turns the process-wide
:data:`repro.obs.METRICS` registry -- plus, when given, a
:class:`~repro.obs.live.LiveTelemetry` plane's windowed series, burn
rates and alert counts -- into the plain-text format every Prometheus
scraper understands:

- counters expose as ``repro_<name>_total``;
- histograms as summaries: ``_count`` / ``_sum`` plus
  ``{quantile="0.5"|"0.99"}`` samples from the log-bucket estimator;
- windowed telemetry as labelled gauges
  (``repro_window_p99_seconds{key="tenant-1"}``,
  ``repro_slo_burn_rate{key=...,window="fast"}``, ...).

Rendering reads only bounded state (the registry's metric objects and
the store's rings), so the exposition's cost is independent of how
long the process has been serving -- the hardening property
``GET /metrics`` inherits.

:func:`validate_exposition` is the line-level lint the CI serve-smoke
job runs against a live scrape (malformed names, bad label syntax,
non-numeric values, samples without a ``# TYPE``).
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    METRICS,
)

#: Exposition metric-name prefix.
PREFIX = "repro_"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"$')
_VALUE_RE = re.compile(
    r"^[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN)$")


def mangle(name: str) -> str:
    """A registry metric name as a legal exposition name."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] in "_:"):
        cleaned = "_" + cleaned
    return PREFIX + cleaned


def escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _fmt(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def sample_line(name: str, value: float,
                labels: Optional[Dict[str, str]] = None) -> str:
    if labels:
        body = ",".join(f'{key}="{escape_label(str(val))}"'
                        for key, val in sorted(labels.items()))
        return f"{name}{{{body}}} {_fmt(value)}"
    return f"{name} {_fmt(value)}"


def render_registry(registry: Optional[MetricsRegistry] = None,
                    ) -> List[str]:
    """Exposition lines for every metric in the registry."""
    registry = registry if registry is not None else METRICS
    lines: List[str] = []
    for name in registry.names():
        metric = registry.get(name)
        if isinstance(metric, Counter):
            exposed = mangle(name) + "_total"
            lines.append(f"# TYPE {exposed} counter")
            lines.append(sample_line(exposed, metric.value))
        elif isinstance(metric, Histogram):
            exposed = mangle(name)
            lines.append(f"# TYPE {exposed} summary")
            if metric.count:
                for q, p in (("0.5", 50.0), ("0.99", 99.0)):
                    lines.append(sample_line(
                        exposed, metric.percentile(p), {"quantile": q}))
            lines.append(sample_line(exposed + "_count", metric.count))
            lines.append(sample_line(exposed + "_sum", metric.total))
    return lines


def render_prometheus(registry: Optional[MetricsRegistry] = None,
                      telemetry=None,
                      at: Optional[float] = None) -> str:
    """The full exposition document (ends with a newline).

    ``telemetry`` is a :class:`repro.obs.live.LiveTelemetry` (duck:
    anything with ``exposition_lines(at)``); ``at`` is the virtual
    time windowed samples are evaluated at.
    """
    lines = render_registry(registry)
    if telemetry is not None:
        lines.extend(telemetry.exposition_lines(at))
    return "\n".join(lines) + "\n"


def _split_labels(body: str) -> Optional[List[str]]:
    """Split a label body on top-level commas (None on bad syntax)."""
    parts: List[str] = []
    current = []
    in_quotes = False
    escaped = False
    for ch in body:
        if escaped:
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == '"':
            in_quotes = not in_quotes
        elif ch == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(ch)
    if in_quotes or escaped:
        return None
    if current:
        parts.append("".join(current))
    return parts


def validate_exposition(text: str) -> List[str]:
    """Line-level problems in an exposition document (empty = valid)."""
    problems: List[str] = []
    typed: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            fields = line.split(None, 3)
            if len(fields) >= 2 and fields[1] in ("TYPE", "HELP"):
                if len(fields) < 3 or not _NAME_RE.match(fields[2]):
                    problems.append(
                        f"line {lineno}: malformed {fields[1]} comment")
                elif fields[1] == "TYPE":
                    if len(fields) < 4 or fields[3] not in (
                            "counter", "gauge", "summary", "histogram",
                            "untyped"):
                        problems.append(
                            f"line {lineno}: unknown metric type")
                    else:
                        typed[fields[2]] = fields[3]
            continue
        name, labels, value = _parse_sample(line)
        if name is None:
            problems.append(f"line {lineno}: unparseable sample "
                            f"{line!r}")
            continue
        if not _NAME_RE.match(name):
            problems.append(f"line {lineno}: bad metric name {name!r}")
        if labels is not None:
            parts = _split_labels(labels)
            if parts is None:
                problems.append(
                    f"line {lineno}: bad label syntax {labels!r}")
            else:
                for part in parts:
                    if not _LABEL_RE.match(part.strip()):
                        problems.append(
                            f"line {lineno}: bad label {part!r}")
        if not _VALUE_RE.match(value):
            problems.append(f"line {lineno}: bad value {value!r}")
        family = re.sub(r"_(total|count|sum|bucket)$", "", name)
        if name not in typed and family not in typed:
            problems.append(
                f"line {lineno}: sample {name!r} has no # TYPE")
    return problems


def _parse_sample(
    line: str,
) -> Tuple[Optional[str], Optional[str], str]:
    """(name, label_body_or_None, value) of one sample line."""
    brace = line.find("{")
    if brace >= 0:
        close = line.rfind("}")
        if close < brace:
            return None, None, ""
        name = line[:brace]
        labels = line[brace + 1:close]
        rest = line[close + 1:].strip()
    else:
        fields = line.split()
        if len(fields) < 2:
            return None, None, ""
        name, rest = fields[0], " ".join(fields[1:])
        labels = None
    value = rest.split()[0] if rest.split() else ""
    if not name or not value:
        return None, None, ""
    return name, labels, value
