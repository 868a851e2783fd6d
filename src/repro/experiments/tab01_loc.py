"""Table 1 -- application-specific code needed to run on NetAgg.

The paper's point: supporting an application takes a few hundred lines
(serialiser, aggregation wrapper, shim glue), a fraction of both NetAgg
and the application.  We count the same split over this repository's
app-specific modules with a comment/blank-stripping line counter.
"""

from __future__ import annotations

import pathlib
from typing import Dict, Tuple

import repro
from repro.experiments import register
from repro.experiments.common import DEFAULT, ExperimentResult, SimScale

_REPO_SRC = pathlib.Path(repro.__file__).parent

#: (application, role) -> module paths relative to the package root.
APP_SPECIFIC: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("solr", "box serialisation + wrapper"): ("apps/solr/functions.py",),
    ("solr", "application"): (
        "apps/solr/index.py", "apps/solr/backend.py",
        "apps/solr/frontend.py", "apps/solr/corpus.py",
        "apps/solr/query.py",
    ),
    ("hadoop", "box serialisation + wrapper"): (
        "wire/records.py",  # the KeyValue codec the box reuses
    ),
    ("hadoop", "application"): (
        "apps/hadoop/engine.py", "apps/hadoop/job.py",
        "apps/hadoop/benchmarks.py", "apps/hadoop/data.py",
        "apps/hadoop/iterative.py",
    ),
}

#: The platform itself (for the "relative to NetAgg code base" row).
PLATFORM_PACKAGES = ("core", "aggbox", "wire", "netsim", "topology",
                     "aggregation")


def count_loc(path: pathlib.Path) -> int:
    """Non-blank, non-comment source lines (docstrings excluded)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    count = 0
    in_docstring = False
    for raw in lines:
        line = raw.strip()
        if in_docstring:
            if line.endswith('"""') or line.endswith("'''"):
                in_docstring = False
            continue
        if line.startswith('"""') or line.startswith("'''"):
            quote = line[:3]
            if not (len(line) > 3 and line.endswith(quote)):
                in_docstring = True
            continue
        if not line or line.startswith("#"):
            continue
        count += 1
    return count


def count_package(package: str) -> int:
    total = 0
    for path in sorted((_REPO_SRC / package).rglob("*.py")):
        total += count_loc(path)
    return total


@register("tab01")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    # Line counting has no scale or randomness; both arguments exist
    # only to satisfy the canonical experiment signature.
    del scale, seed
    return _count()


def _count() -> ExperimentResult:
    result = ExperimentResult(
        experiment="tab01",
        description="lines of application-specific code",
        columns=("application", "role", "loc"),
    )
    platform_loc = sum(count_package(p) for p in PLATFORM_PACKAGES)
    totals: Dict[str, int] = {}
    app_totals: Dict[str, int] = {}
    for (app, role), modules in sorted(APP_SPECIFIC.items()):
        loc = sum(count_loc(_REPO_SRC / m) for m in modules)
        if role != "application":
            totals[app] = totals.get(app, 0) + loc
        else:
            app_totals[app] = loc
        result.add_row(application=app, role=role, loc=loc)
    for app in sorted(totals):
        result.add_row(
            application=app,
            role="plugin total / platform %",
            loc=round(100.0 * totals[app] / platform_loc, 1),
        )
        result.add_row(
            application=app,
            role="plugin total / application %",
            loc=round(100.0 * totals[app] / app_totals[app], 1),
        )
    result.notes = f"platform LoC = {platform_loc}"
    return result
