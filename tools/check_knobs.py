#!/usr/bin/env python
"""Census: which policy knobs does a caller outside the tests set?

Every field of a policy or config object is an option, and every option
doubles the configurations the tests and benchmarks must cover.  This
script counts, for each knob of the platform's policy plane -- the
fields of ``RetryPolicy``, ``ServeConfig`` and ``TenantPolicy``, plus
the constructor parameters of ``NetAggPlatform`` and of the fault
injectors, the parameters of ``FaultSchedule.generate`` and the
testbed emulator's ``TestbedConfig`` and ``SolrEmulationParams`` fields
-- the call sites under ``src/`` and ``perf/`` that set it:

- by keyword or by position in a call of the owner (``Owner(...)``,
  ``module.Owner(...)`` or, for a method owner, ``Owner.method(...)``),
  or
- by keyword in a ``replace(...)`` / ``dataclasses.replace(...)`` call,
  credited to every dataclass owner that has a field of each of the
  call's keywords (the replaced object's type is not known
  statically, so a same-named field of another dataclass can be
  credited too).

A knob no such call sets is exercised only by its default and the
tests.  It must then appear in :data:`TEST_ONLY` with a one-line
reason; that table is the short list of options a test genuinely
needs settable, and every other unset knob becomes a constant.  The
script exits 1 when a knob is unset and unlisted, and when a listed
knob has gained a setter (the entry is stale).

Run from the repo root::

    python tools/check_knobs.py          # census on stdout, exit 1 on problems

Also exercised by the tier-1 suite (``tests/test_check_knobs.py``) and
the CI lint job.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Directories whose calls count as setters (tests and examples do not).
SCANNED = ("src", "perf")

#: (module relative to src/repro, owner) pairs whose knobs are counted.
#: A dataclass's knobs are its annotated fields; a plain class's are its
#: ``__init__`` parameters; a ``Class.method`` owner's are the method's
#: parameters after ``self``/``cls``.
OWNERS = (
    ("faults/retry.py", "RetryPolicy"),
    ("serve/service.py", "ServeConfig"),
    ("serve/service.py", "TenantPolicy"),
    ("core/platform.py", "NetAggPlatform"),
    ("faults/schedule.py", "FaultSchedule.generate"),
    ("faults/inject.py", "SimFaultInjector"),
    ("faults/inject.py", "PlatformFaultInjector"),
    ("cluster/deployment.py", "TestbedConfig"),
    ("cluster/solr_driver.py", "SolrEmulationParams"),
)

#: Owners that are not dataclasses: ``replace`` cannot set their knobs.
CONSTRUCTED_ONLY = frozenset(
    {"NetAggPlatform", "FaultSchedule.generate", "SimFaultInjector",
     "PlatformFaultInjector"})

#: ``Owner.knob`` -> why no caller outside the tests sets it.
TEST_ONLY: Dict[str, str] = {
    "ServeConfig.dump_dir":
        "a deployment path, so it stays; only tests write dumps to disk",
    "FaultSchedule.generate.permanent_fraction":
        "the chaos suites need all-permanent and all-recovering crashes",
}

Site = str  #: "path:line" of one setting call


def owner_knobs() -> Dict[str, List[str]]:
    """``owner -> knobs`` in declaration order, read from the source."""
    knobs: Dict[str, List[str]] = {}
    for module, owner in OWNERS:
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        name, _, method = owner.partition(".")
        cls = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == name)
        init = next((node for node in cls.body
                     if isinstance(node, ast.FunctionDef)
                     and node.name == (method or "__init__")), None)
        if init is not None:
            knobs[owner] = [a.arg for a in init.args.args[1:]]
        else:
            knobs[owner] = [node.target.id for node in cls.body
                            if isinstance(node, ast.AnnAssign)
                            and isinstance(node.target, ast.Name)]
    return knobs


def _callees(call: ast.Call) -> Tuple[str, ...]:
    """The names a call answers to: ``f(...)`` is ``f``, ``a.f(...)`` is
    ``f`` and ``a.f``."""
    func = call.func
    if isinstance(func, ast.Name):
        return (func.id,)
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name):
            return (func.attr, f"{func.value.id}.{func.attr}")
        return (func.attr,)
    return ()


def setters_in(source: str, knobs: Dict[str, List[str]],
               where: str = "<source>") -> Dict[str, List[Site]]:
    """``Owner.knob -> sites`` for the setting calls in one source text."""
    found: Dict[str, List[Site]] = {}

    def credit(owner: str, knob: str, line: int) -> None:
        found.setdefault(f"{owner}.{knob}", []).append(f"{where}:{line}")

    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        names = _callees(node)
        name = next((n for n in names if n in knobs), None)
        if name is not None:
            fields = knobs[name]
            for index, arg in enumerate(node.args):
                if index < len(fields) and not isinstance(arg, ast.Starred):
                    credit(name, fields[index], node.lineno)
            for keyword in node.keywords:
                if keyword.arg in fields:
                    credit(name, keyword.arg, node.lineno)
        elif names[:1] == ("replace",):
            names = {keyword.arg for keyword in node.keywords}
            for owner, fields in knobs.items():
                if owner not in CONSTRUCTED_ONLY and names <= set(fields):
                    for keyword in node.keywords:
                        credit(owner, keyword.arg, node.lineno)
    return found


def census() -> List[Tuple[str, List[Site]]]:
    """Every knob with the sites under :data:`SCANNED` that set it."""
    knobs = owner_knobs()
    sites: Dict[str, List[Site]] = {
        f"{owner}.{knob}": [] for owner in knobs for knob in knobs[owner]}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            if "/tests/" in f"/{rel}":
                continue
            found = setters_in(path.read_text(encoding="utf-8"), knobs, rel)
            for key, where in found.items():
                sites[key].extend(where)
    return list(sites.items())


def problems(rows: List[Tuple[str, List[Site]]]) -> List[str]:
    """Unset knobs missing from TEST_ONLY, and stale TEST_ONLY entries."""
    out = []
    known = {key for key, _ in rows}
    for key, sites in rows:
        if not sites and key not in TEST_ONLY:
            out.append(f"{key}: no caller outside the tests sets it; make "
                       f"it a constant or list it in TEST_ONLY")
        elif sites and key in TEST_ONLY:
            out.append(f"{key}: set at {sites[0]}; drop its TEST_ONLY "
                       f"entry")
    out.extend(f"{key}: TEST_ONLY names a knob that does not exist"
               for key in sorted(set(TEST_ONLY) - known))
    return out


def run() -> int:
    rows = census()
    width = max(len(key) for key, _ in rows)
    for key, sites in rows:
        where = ", ".join(sites[:3]) + (" ..." if len(sites) > 3 else "")
        print(f"{key:<{width}}  {len(sites):>3}  "
              f"{where or 'TEST_ONLY: ' + TEST_ONLY.get(key, '?')}")
    unset = sum(1 for _, sites in rows if not sites)
    print(f"{len(rows)} knobs, {len(rows) - unset} set outside the tests, "
          f"{unset} test-only")
    failures = problems(rows)
    for line in failures:
        print(line, file=sys.stderr)
    if failures:
        print(f"check_knobs: {len(failures)} problem(s)", file=sys.stderr)
        return 1
    print("check_knobs: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run())
