#!/usr/bin/env python
"""Lint: telemetry lives in ``repro.obs``, not in ad-hoc counter dicts.

Before the unified observability layer, each layer grew its own
telemetry (module-wide work counters in the simulator, shim-event
tallies in the platform, health/queue stats on the boxes).  This check keeps it from
growing back: outside ``src/repro/obs/``, modules may not

- define a class whose name says it is a telemetry container
  (``*Counters``, ``*Telemetry``, ``*Tally``, ``*MetricsRegistry``),
- bind a module-level ``COUNTERS`` / ``METRICS`` / ``TELEMETRY``-style
  global to a fresh container, or
- parse raw trace payloads ad hoc: mention the ``traceEvents`` key or
  define a ``parse/load/read`` + ``trace`` function.  Trace files are
  consumed through ``repro.obs.analyze.TraceData`` (and written by
  ``repro.obs.export``) so the exporter's schema quirks -- exact-time
  ``t0``/``t1`` keys, seq-encoded ordering -- live in one place, or
- re-implement windowing / smoothing math: define a function, class or
  attribute whose name says EWMA or EMA, or a class whose name says it
  is a windowed/rolling series or burn-rate tracker.  That arithmetic lives
  in :mod:`repro.obs.live` (``ewma_step``, ``WindowedSeries``,
  ``SloMonitor``); callers import it (as ``core.partition``'s
  ``GrayDetector`` does) rather than growing private copies whose
  boundary conventions drift, or
- open a span with ``with ....span(...)``: every span outside
  ``repro.obs`` sits on a request or epoch path, where the
  ``@contextmanager`` generator costs more than the span and is paid
  even with tracing off.  Use the guarded ``tracer.begin(...) if
  tracer.enabled else 0`` / ``try`` / ``finally: tracer.end(...)``
  shape; ``Tracer.span`` stays for tests and off-path callers.

Run from the repo root::

    python tools/check_obs.py          # exit 1 on violations

Also exercised by the tier-1 suite (``tests/test_obs.py``) and the CI
lint job.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
from typing import List, Tuple

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: Class names that read as ad-hoc telemetry containers.
CLASS_PATTERN = re.compile(
    r"(Counters|Telemetry|Tally|MetricsRegistry)$")

#: Module-level globals that read as telemetry singletons.
GLOBAL_PATTERN = re.compile(r"^(COUNTERS|METRICS|TELEMETRY|STATS)$")

#: Function names that read as ad-hoc trace-payload parsers.
TRACE_FN_PATTERN = re.compile(
    r"(?:^|_)(?:parse|load|read)\w*_trace|trace\w*_(?:parse|load|read)")

#: Definition/binding names that read as private smoothing math:
#: ``ewma`` anywhere, or ``ema`` as a whole ``_``-separated word
#: (``_ema``, ``ema_alpha``; not ``schema``).
EWMA_PATTERN = re.compile(r"(?i)ewma|(?:^|_)ema(?:_|$)")

#: Class names that read as ad-hoc windowed-series / burn-rate
#: containers (repro.obs.live owns that arithmetic).
WINDOW_CLASS_PATTERN = re.compile(
    r"(Windowed?(Series|Stats|Store)?$|Rolling|BurnRate|TimeSeries)")

#: (module relative to src/repro, symbol) pairs that may stay.
ALLOWLIST = {
    # Hadoop-style *job* counters: domain data of the modelled
    # application (the paper's MapReduce workload), not repo telemetry.
    ("apps/hadoop/job.py", "Counters"),
}


def check_file(path: pathlib.Path) -> List[Tuple[int, str]]:
    rel = path.relative_to(SRC).as_posix()
    problems: List[Tuple[int, str]] = []
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    problems.extend(_check_trace_parsing(tree))
    problems.extend(_check_window_math(tree))
    problems.extend(_check_span_blocks(tree))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) \
                and CLASS_PATTERN.search(node.name) \
                and (rel, node.name) not in ALLOWLIST:
            problems.append((
                node.lineno,
                f"class {node.name!r} looks like an ad-hoc telemetry "
                f"container; use repro.obs.METRICS instead",
            ))
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) \
                    and GLOBAL_PATTERN.match(target.id) \
                    and (rel, target.id) not in ALLOWLIST:
                problems.append((
                    node.lineno,
                    f"module-level {target.id!r} looks like a telemetry "
                    f"singleton; register metrics on repro.obs.METRICS",
                ))
    return problems


def _check_window_math(tree: ast.Module) -> List[Tuple[int, str]]:
    """Flag private windowing / EWMA math (module docstring, rule 4).

    Only *definitions and bindings* count: a function, class, or
    assignment target named after EWMA, or a class named like a
    windowed-series container.  Importing and calling
    ``repro.obs.live.ewma_step`` is the sanctioned pattern and never
    binds such a name, so it passes.
    """
    problems: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and EWMA_PATTERN.search(node.name):
            problems.append((
                node.lineno,
                f"function {node.name!r} re-implements EWMA math; "
                f"use repro.obs.live.ewma_step",
            ))
        elif isinstance(node, ast.ClassDef):
            if EWMA_PATTERN.search(node.name) \
                    or WINDOW_CLASS_PATTERN.search(node.name):
                problems.append((
                    node.lineno,
                    f"class {node.name!r} looks like a private windowed"
                    f"-series/EWMA container; use repro.obs.live "
                    f"(WindowedSeries, TimeSeriesStore, SloMonitor)",
                ))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                name = None
                if isinstance(target, ast.Name):
                    name = target.id
                elif isinstance(target, ast.Attribute):
                    name = target.attr
                if name is not None and EWMA_PATTERN.search(name):
                    problems.append((
                        node.lineno,
                        f"binding {name!r} looks like private EWMA "
                        f"state; keep the smoothing arithmetic in "
                        f"repro.obs.live.ewma_step",
                    ))
    return problems


def _check_span_blocks(tree: ast.Module) -> List[Tuple[int, str]]:
    """Flag ``with <anything>.span(...)`` (module docstring, rule 5)."""
    problems: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            call = item.context_expr
            if isinstance(call, ast.Call) \
                    and isinstance(call.func, ast.Attribute) \
                    and call.func.attr == "span":
                problems.append((
                    node.lineno,
                    "'with ....span(...)' outside repro.obs; use the "
                    "guarded tracer.begin / try / finally: tracer.end "
                    "shape",
                ))
    return problems


def _check_trace_parsing(tree: ast.Module) -> List[Tuple[int, str]]:
    """Flag ad-hoc trace-payload parsing (module docstring, rule 3).

    Docstrings are exempt (they may *describe* the format); string
    constants used as code -- dict keys, comparisons -- are not.
    """
    problems: List[Tuple[int, str]] = []
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) \
                    and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                docstrings.add(id(body[0].value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value == "traceEvents" \
                and id(node) not in docstrings:
            problems.append((
                node.lineno,
                "raw 'traceEvents' access outside repro.obs; load trace "
                "files via repro.obs.analyze.TraceData",
            ))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and TRACE_FN_PATTERN.search(node.name):
            problems.append((
                node.lineno,
                f"function {node.name!r} looks like an ad-hoc trace "
                f"parser; use repro.obs.analyze.TraceData instead",
            ))
    return problems


def run() -> int:
    failures = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).as_posix().startswith("obs/"):
            continue
        for lineno, message in check_file(path):
            failures.append(f"{path.relative_to(SRC.parents[1])}:"
                            f"{lineno}: {message}")
    for line in failures:
        print(line, file=sys.stderr)
    if failures:
        print(f"check_obs: {len(failures)} violation(s)", file=sys.stderr)
        return 1
    print("check_obs: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run())
