#!/usr/bin/env python
"""Census: which knobs does a caller outside the tests set?

Every defaulted field of a parameter object is an option, and every
option doubles the configurations the tests and benchmarks must cover.
The owners are found by a rule, not listed by hand: every class under
``src/repro`` that is a ``@dataclass`` with a defaulted field, or whose
``__init__`` has defaulted parameters.  Its knobs are those defaulted
fields or parameters; a required one is an input every caller passes,
not an option.  Two owners the rule cannot see are kept by name
(:data:`NAMED`), with every parameter a knob.

A defaulted field that holds state rather than configuration -- a
counter, an accumulator, a result a run fills in -- is not a knob.
Fields whose name starts with ``_`` are private by convention; the
rest sit in :data:`STATE`, keyed by class (every defaulted field is
state) or by ``Class.field``, with one line of reason each.

This script counts, for each knob, the call sites under ``src/``,
``perf/`` and ``examples/`` that set it:

- by keyword or by position in a call of the owner (``Owner(...)``,
  ``module.Owner(...)`` or, for a method owner, ``Owner.method(...)``);
- by keyword in ``super().__init__(...)`` inside a subclass of the
  owner;
- by keyword in a call of a method that forwards its keywords to an
  owner (:data:`FORWARDS`, such as ``scale.with_topo(edge_rate=...)``);
- by keyword in a ``replace(...)`` / ``dataclasses.replace(...)`` call,
  credited to every dataclass owner that has a field of each of the
  call's keywords (the replaced object's type is not known
  statically, so a same-named field of another dataclass can be
  credited too).

A knob no such call sets is exercised only by its default and the
tests.  It must then appear in :data:`TEST_ONLY` with a one-line
reason; that table is the short list of options a test genuinely
needs settable, and every other unset knob becomes a constant.  A knob
only an example sets is printed in a tally of its own: the examples
are entry points, as they are for ``tools/check_reach.py``.  The
script exits 1 when a knob is unset and unlisted, when a listed knob
has gained a setter (the entry is stale), and when a :data:`STATE`
row names no owner's field.

Run from the repo root::

    python tools/check_knobs.py          # census on stdout, exit 1 on problems

Also exercised by the tier-1 suite (``tests/test_check_knobs.py``) and
the CI lint job.
"""

from __future__ import annotations

import ast
import functools
import pathlib
import sys
from typing import Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Directories whose calls count as setters (tests do not).
SCANNED = ("src", "perf", "examples")

#: (module relative to src/repro, owner) pairs the rule cannot find, all
#: of whose parameters are knobs: a method (``Class.method``) and an
#: injector whose parameters have no defaults.
NAMED = (
    ("faults/schedule.py", "FaultSchedule.generate"),
    ("faults/inject.py", "SimFaultInjector"),
)

#: Method name -> the owner whose fields its ``**overrides`` replace.
FORWARDS = {
    "with_topo": "ThreeTierParams",
    "scaled": "ThreeTierParams",
    "with_workload": "WorkloadParams",
}

#: ``Class`` or ``Class.field`` -> why its defaulted fields are state,
#: not configuration.
STATE: Dict[str, str] = {
    "RequestState": "a box's partials for one request, filled as they "
                    "arrive",
    "_TaskNode": "a local-tree task's buffered chunks during one run",
    "AppShare": "CPU seconds and tasks one app ran, accumulated",
    "RequestTiming": "stamped when the box emits the aggregate",
    "Counters": "Hadoop job counters the engine fills in",
    "SolrRunResult": "a run's query latencies, appended as they finish",
    "RecoveryLog": "what one recovery redirected, replayed and "
                   "suppressed",
    "_RequestEntry": "the master shim's results for one in-flight "
                     "request",
    "Endpoint": "frames an endpoint has received, per port",
    "_RequestRouting": "which aggregates a redirected request still "
                       "awaits",
    "BoxVertex": "tree links the builder fills in while wiring boxes",
    "CostReport": "line items appended by add()",
    "ExperimentResult": "a figure's rows, notes and diagnosis, filled "
                        "by the figure",
    "SolverStats": "work counters of one solver instance",
    "Link.bytes_carried": "traffic accounted while a run carries it",
    "RunView": "records a trace run collects",
    "TraceData": "records a loaded trace collects",
    "TenantStats": "one tenant's serving ledger, counted per request",
    "_StructureIndex": "answers cached from one scan of the node table",
}

#: ``Owner.knob`` -> why no caller outside the tests sets it.
TEST_ONLY: Dict[str, str] = {
    "FlowSim.solver":
        "'auto' picks the backend from numpy's presence; the tests "
        "cross-check both backends",
    "ServeConfig.dump_dir":
        "a deployment path, so it stays; only tests write dumps to disk",
    "FaultSchedule.generate.permanent_fraction":
        "the chaos suites need all-permanent and all-recovering crashes",
}

Site = str  #: "path:line" of one setting call


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name == "dataclass":
            return True
    return False


def _signature(func: ast.FunctionDef) -> Tuple[List[str], List[str]]:
    """A function's parameters after ``self``/``cls``, and those of
    them with a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    params = [a.arg for a in positional[1:] + args.kwonlyargs]
    defaulted = [a.arg for a in
                 positional[len(positional) - len(args.defaults):]]
    defaulted += [a.arg for a, default in
                  zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None]
    return params, defaulted


@functools.lru_cache(maxsize=None)
def _scan() -> Dict[str, Tuple[List[str], List[str], bool]]:
    """``owner -> (parameters, defaulted ones, is a dataclass)`` for the
    owners the rule finds and the :data:`NAMED` ones."""
    found: Dict[str, Tuple[List[str], List[str], bool]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if _is_dataclass(cls):
                fields = [node for node in cls.body
                          if isinstance(node, ast.AnnAssign)
                          and isinstance(node.target, ast.Name)]
                params = [node.target.id for node in fields]
                defaulted = [node.target.id for node in fields
                             if node.value is not None]
                dataclass = True
            else:
                init = next((node for node in cls.body
                             if isinstance(node, ast.FunctionDef)
                             and node.name == "__init__"), None)
                if init is None:
                    continue
                params, defaulted = _signature(init)
                dataclass = False
            if defaulted:
                found[cls.name] = (params, defaulted, dataclass)
    for module, owner in NAMED:
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        name, _, method = owner.partition(".")
        cls = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == name)
        func = next(node for node in cls.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name == (method or "__init__"))
        params, _ = _signature(func)
        found[owner] = (params, params, False)
    return found


def _is_dataclass_owner(owner: str) -> bool:
    """Whether ``replace`` can set the owner's fields."""
    return owner in _scan() and _scan()[owner][2]


def owner_knobs() -> Dict[str, List[str]]:
    """``owner -> parameters`` in declaration order, read from the
    source: what a positional argument of a call sets."""
    return {owner: params for owner, (params, _, _) in _scan().items()}


def owners() -> Dict[str, List[str]]:
    """``owner -> defaulted fields`` in declaration order, state
    included."""
    return {owner: defaulted for owner, (_, defaulted, _) in _scan().items()}


def is_state(owner: str, field: str) -> bool:
    """Whether ``owner.field`` holds state rather than configuration."""
    return (field.startswith("_") or owner in STATE
            or f"{owner}.{field}" in STATE)


def knobs() -> List[str]:
    """Every ``Owner.knob`` the census counts, in declaration order."""
    return [f"{owner}.{field}" for owner, defaulted in owners().items()
            for field in defaulted if not is_state(owner, field)]


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


def _super_inits(tree: ast.AST) -> Dict[ast.Call, str]:
    """Each ``super().__init__(...)`` call -> its class's first base."""
    out: Dict[ast.Call, str] = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or not cls.bases:
            continue
        base = cls.bases[0]
        base = base.attr if isinstance(base, ast.Attribute) else getattr(
            base, "id", "")
        for node in ast.walk(cls):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__init__"
                    and isinstance(node.func.value, ast.Call)
                    and _callees(node.func.value) == ("super",)):
                out[node] = base
    return out


def setters_in(source: str, knobs: Dict[str, List[str]],
               where: str = "<source>") -> Dict[str, List[Site]]:
    """``Owner.knob -> sites`` for the setting calls in one source text."""
    found: Dict[str, List[Site]] = {}

    def credit(owner: str, knob: str, line: int) -> None:
        found.setdefault(f"{owner}.{knob}", []).append(f"{where}:{line}")

    tree = ast.parse(source)
    supers = _super_inits(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        names = (supers[node],) if node in supers else _callees(node)
        name = next((n for n in names if n in knobs), None)
        forward = FORWARDS.get(names[0]) if names else None
        if name is not None:
            fields = knobs[name]
            for index, arg in enumerate(node.args):
                if index < len(fields) and not isinstance(arg, ast.Starred):
                    credit(name, fields[index], node.lineno)
            for keyword in node.keywords:
                if keyword.arg in fields:
                    credit(name, keyword.arg, node.lineno)
        elif forward in knobs:
            for keyword in node.keywords:
                if keyword.arg in knobs[forward]:
                    credit(forward, keyword.arg, node.lineno)
        elif names[:1] == ("replace",):
            names = {keyword.arg for keyword in node.keywords}
            for owner, fields in knobs.items():
                if _is_dataclass_owner(owner) and names <= set(fields):
                    for keyword in node.keywords:
                        credit(owner, keyword.arg, node.lineno)
    return found


def census() -> List[Tuple[str, List[Site]]]:
    """Every knob with the sites under :data:`SCANNED` that set it."""
    signatures = owner_knobs()
    sites: Dict[str, List[Site]] = {key: [] for key in knobs()}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            if "/tests/" in f"/{rel}":
                continue
            found = setters_in(path.read_text(encoding="utf-8"), signatures,
                               rel)
            for key, where in found.items():
                if key in sites:
                    sites[key].extend(where)
    return list(sites.items())


def example_only(rows: List[Tuple[str, List[Site]]]) -> List[str]:
    """The knobs that only an example sets."""
    return [key for key, sites in rows
            if sites and all(site.startswith("examples/") for site in sites)]


def problems(rows: List[Tuple[str, List[Site]]]) -> List[str]:
    """Unset knobs missing from TEST_ONLY, stale TEST_ONLY entries and
    STATE rows that name no owner's field."""
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
    defaulted = owners()
    for key in sorted(STATE):
        owner, _, field = key.partition(".")
        if owner not in defaulted or (field and
                                      field not in defaulted[owner]):
            out.append(f"{key}: STATE names no owner's defaulted field")
    return out


def run() -> int:
    rows = census()
    width = max(len(key) for key, _ in rows)
    for key, sites in rows:
        where = ", ".join(sites[:3]) + (" ..." if len(sites) > 3 else "")
        print(f"{key:<{width}}  {len(sites):>3}  "
              f"{where or 'TEST_ONLY: ' + TEST_ONLY.get(key, '?')}")
    unset = sum(1 for _, sites in rows if not sites)
    owners = len({key.rsplit(".", 1)[0] for key, _ in rows})
    print(f"{len(rows)} knobs over {owners} owners, {len(rows) - unset} "
          f"set outside the tests, {unset} test-only")
    examples = example_only(rows)
    print(f"{len(examples)} set only by an example:")
    first_site = {key: sites[0] for key, sites in rows if sites}
    for key in examples:
        print(f"  {key:<{width}}  {first_site[key]}")
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
