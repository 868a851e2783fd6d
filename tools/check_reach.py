#!/usr/bin/env python
"""Census: which functions under ``src/repro`` does an entry point enter?

A function that no figure, example or served request ever enters is kept
alive only by the tests that import it.  This script drives the entry
points with a profile hook installed and lists every ``def`` and
``lambda`` under ``src/repro`` that nothing entered:

- ``python -m repro run all --scale quick``, then each other CLI
  command once at QUICK scale (in process; see :func:`_cli_runs`);
- every script under ``examples/`` (in process);
- ``python -m repro serve --port 0`` (a child process with its own
  hook) with one query and one 1,024-dim gradient round, both held to
  the centralised aggregate, one ``/metrics`` read, one bad request (a
  header line past the reader's limit) and one ``repro watch`` frame,
  then SIGINT, on which the child's exit handler writes what it
  entered.

An unentered ``def`` must appear in :data:`REASONS` with a one-line
reason; every other one is dead code and goes.  The script exits 1 when
an unentered ``def`` is unlisted, and when a listed entry is stale: it
names no ``def`` that exists, or everything it covers was entered.  A
key is ``path:qualname`` with the path relative to ``src/repro``; a
class's or a function's key also covers the methods and closures
inside it.

Two traps, both met while writing this:

- code objects are recorded by identity (``id``).  A code object's
  ``==`` ignores ``co_filename``, so a ``set`` of code objects folds two
  byte-identical functions from different files (the ``run`` of two
  figures built from one template) into one, and reports the second as
  never entered;
- the serving thread and the ``repro serve`` child need hooks of their
  own: ``threading.setprofile`` for threads started under the hook, and
  a child that installs the hook itself.

Run from the repo root with numpy installed (about 70 s; without numpy
the stdlib solver is entered and its ``REASONS`` rows go stale)::

    python tools/check_reach.py          # census on stdout, exit 1 on problems

The report logic is exercised by the tier-1 suite
(``tests/test_check_reach.py``); the full drive runs in the CI lint job.
"""

from __future__ import annotations

import ast
import atexit
import contextlib
import io
import json
import os
import pathlib
import runpy
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import urllib.request
from types import CodeType
from typing import Dict, Iterable, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: ``path:qualname`` -> why nothing the drive enters it, by category:
#: *stdlib* (the numpy-free path, run by CI's ``tests-no-numpy`` leg),
#: *oracle* (a reference or a state read the tests hold the code to),
#: *interface* (abstract, null-object or lazy-import surface), *fault*
#: (a branch only a fault or bad input the drive does not send
#: reaches) and *outside* (run where this hook cannot see: ``perf/``,
#: ``tools/``, a fork child or under cProfile).
REASONS: Dict[str, str] = {
    "__init__.py:_lazy_exports.<locals>.__dir__":
        "interface: PEP 562 `dir()` of a package, which lists its lazy "
        "re-exports; no entry point lists a package",
    "aggbox/box.py:AggBoxRuntime.adjust_expected":
        "fault: §3.1 recovery of a box that dies below another box "
        "mid-request",
    "aggbox/box.py:AggBoxRuntime.has_source":
        "fault: §3.1 recovery of a box that dies below another box "
        "mid-request",
    "aggbox/box.py:AggBoxRuntime.partial_streams":
        "oracle: tests/leftovers.py reads it (request lifetime)",
    "aggbox/box.py:AggBoxRuntime.pending_count":
        "oracle: tests/leftovers.py reads it (request lifetime)",
    "aggbox/box.py:AggBoxRuntime.pending_requests":
        "oracle: the box tests read what a request left buffered",
    "aggbox/functions.py:AggregationFunction.merge":
        "interface: abstract",
    "aggregation/base.py:AggregationStrategy.plan_job":
        "interface: abstract",
    "apps/solr/index.py:InvertedIndex":
        "fault: mini-Solr's `+term`/`\"phrase\"` constraints; the Solr "
        "figures send plain ranked queries",
    "apps/solr/query.py:allowed_documents":
        "fault: mini-Solr's `+term`/`\"phrase\"` constraints; the Solr "
        "figures send plain ranked queries",
    "apps/solr/query.py:parse_query":
        "fault: the quoted-phrase branch of the query parser",
    "bench.py:_profile_experiment":
        "outside: `bench --profile` runs under cProfile, which replaces "
        "this hook",
    "core/breaker.py:BreakerBoard.transitions":
        "oracle: the transition log assert_legal_breaker_transitions and "
        "the chaos digests read",
    "core/breaker.py:CircuitBreaker":
        "fault: a breaker trips only on probe timeouts under "
        "breakers=True",
    "core/breaker.py:assert_legal_breaker_transitions":
        "oracle: the breaker state-machine check of the chaos suites",
    "core/partition.py:Completeness.merged":
        "fault: a batch job on a partition-tolerant platform",
    "core/recovery.py:InFlightRequest._emission_tags":
        "fault: §3.1 recovery of a box that dies below another box "
        "mid-request",
    "core/shim.py:MasterShim.pending_requests":
        "oracle: tests/leftovers.py reads it (request lifetime)",
    "experiments/sweep.py:_call_with_counters":
        "outside: runs in the fork children of `sweep --processes N`",
    "faults/schedule.py:FaultSchedule.validate":
        "fault: names the events of an invalid schedule",
    "netsim/_transfer.py:_DictTransfers":
        "stdlib: the transfer state FlowSim keeps without numpy",
    "netsim/engine.py:EventQueue":
        "outside: step/step_batch are perf/emu.py's engine "
        "micro-benchmark",
    "netsim/fairness.py:max_min_rates_py":
        "oracle: the exact max-min both solvers are property-tested "
        "against",
    "netsim/incremental.py:IncrementalMaxMin":
        "stdlib: the solver solver='auto' picks without numpy",
    "netsim/incremental.py:_Flow":
        "stdlib: IncrementalMaxMin's flow record",
    "netsim/metrics.py:FctSummary.empty":
        "fault: a figure cell that selects no flows",
    "netsim/reference.py:simulate_reference":
        "oracle: the event-by-event simulator tests/test_reference_sim.py "
        "holds FlowSim to",
    "netsim/simulator.py:FlowSpec.rate_cap":
        "outside: perf/sim.py's solver replay reads `spec.rate_cap`",
    "netsim/vectorized.py:VectorizedMaxMin":
        "interface: `rate`/`rates`/`in`/`len` of the solver seam it "
        "shares with IncrementalMaxMin; perf/sim.py names `rates`",
    "obs/live/slo.py:BurnRateAlert.to_dict":
        "fault: /v1/stats lists alerts only once an SLO burns",
    "obs/tracer.py:NullTracer":
        "interface: the disabled tracer; every call site tests "
        "`tracer.enabled` first",
    "obs/tracer.py:Span.seq":
        "outside: tools/hop_table.py orders a request's spans by it",
    "serve/service.py:ServeConfig.k":
        "outside: perf/serve.py reads `config.k`",
    "wire/serializer.py:read_floats":
        "oracle: the list decoder the gradient codec differential's "
        "frozen decode_vector calls; decode_vector now makes an array",
}

#: (file, first line, name): what a code object and a ``def`` share.
Key = Tuple[str, int, str]


class Recorder:
    """Profile hook that records every code object entered, by identity.

    ``entered`` maps ``id(code)`` to the code object, which also keeps
    the object alive so that its ``id`` is not reused.
    """

    def __init__(self) -> None:
        self.entered: Dict[int, CodeType] = {}

    def _hook(self, frame, event, _arg) -> None:
        if event == "call":
            code = frame.f_code
            self.entered[id(code)] = code

    def start(self) -> None:
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)

    def stop(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def keys(self) -> Set[Key]:
        """``(real path, first line, name)`` of every code entered."""
        return {(os.path.realpath(code.co_filename), code.co_firstlineno,
                 code.co_name) for code in self.entered.values()}


def defs(root: pathlib.Path = SRC) -> Dict[Key, str]:
    """Every ``def`` and ``lambda`` under ``root``: its key ->
    ``path:qualname`` (``path:outer.<lambda>@line`` for a lambda).

    A code object's first line is its first decorator's, so the key
    takes the smaller of the two.
    """
    found: Dict[Key, str] = {}

    def walk(node: ast.AST, path: pathlib.Path, rel: str,
             prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                found[(str(path), first, child.name)] = f"{rel}:{qualname}"
                walk(child, path, rel, qualname + ".<locals>.")
            elif isinstance(child, ast.Lambda):
                qualname = f"{prefix}<lambda>@{child.lineno}"
                found[(str(path), child.lineno, "<lambda>")] = \
                    f"{rel}:{qualname}"
                walk(child, path, rel, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, rel, prefix + child.name + ".")
            else:
                walk(child, path, rel, prefix)

    root = root.resolve()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        walk(tree, path, path.relative_to(root).as_posix(), "")
    return found


def _covers(key: str, name: str) -> bool:
    return name == key or name.startswith(key + ".")


def problems(all_defs: Dict[Key, str], entered: Iterable[Key],
             reasons: Dict[str, str]) -> Tuple[List[str], List[str]]:
    """``(unentered names, problems)`` for one census."""
    entered = set(entered)
    unentered = sorted(name for key, name in all_defs.items()
                       if key not in entered)
    names = set(all_defs.values())
    out = []
    for name in unentered:
        if not any(_covers(key, name) for key in reasons):
            out.append(f"{name}: nothing enters it; delete it or list "
                       f"it in REASONS")
    for key in sorted(reasons):
        if not any(_covers(key, name) for name in names):
            out.append(f"{key}: REASONS names a def that does not exist")
        elif not any(_covers(key, name) for name in unentered):
            out.append(f"{key}: entered; drop its REASONS entry")
    return unentered, out


# -- the drive ------------------------------------------------------------

def _quiet(call, echo: bool = True) -> int:
    """Run ``call`` with stdout and stderr swallowed; its exit code.
    A failing call's output tail is echoed to stderr unless ``echo`` is
    off."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    if code is None:
        return 0
    if not isinstance(code, int):
        code = 1  # SystemExit("message"), as argparse and the CLI raise
    if code and echo:
        sys.stderr.write(sink.getvalue()[-4000:])
    return code


def _run_script(path: pathlib.Path) -> int:
    runpy.run_path(str(path), run_name="__main__")
    return 0


def serve_child(out: str) -> None:
    """Body of the ``repro serve`` child: hook, serve, dump on exit."""
    recorder = Recorder()

    def dump() -> None:
        recorder.stop()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(sorted(recorder.keys()), fh)

    atexit.register(dump)
    recorder.start()
    sys.argv = ["repro", "serve", "--port", "0"]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)


def _post(base: str, path: str, body: dict) -> dict:
    request = urllib.request.Request(base + path,
                                     data=json.dumps(body).encode())
    with urllib.request.urlopen(request, timeout=30) as reply:
        return json.loads(reply.read())


def _bad_request(host: str, port: int) -> bytes:
    """One header line past the reader's 64 KiB limit: a 431."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(b"POST /v1/query HTTP/1.1\r\nX-Long: "
                     + b"a" * 70_000 + b"\r\n\r\n")
        return sock.recv(4096).split(b"\r\n", 1)[0]


def _cli_runs(tmp: str) -> List[List[str]]:
    """The ``python -m repro`` commands driven in process, in order."""
    ledger, trace, workload = (os.path.join(tmp, name) for name in
                               ("bench.json", "trace.json", "wl.jsonl"))
    quick = ["--scale", "quick"]
    return [
        ["run", "all", *quick],
        ["run", "tab01", *quick, "--plot"],
        ["list"],
        ["info"],
        ["bench", *quick, "--only", "fig06", "--out", ledger],
        ["bench", *quick, "--only", "fig06", "--compare", ledger],
        ["sweep", "fig06", *quick, "--processes", "1"],
        ["trace", "fig06", *quick, "--out", trace,
         "--metrics-out", os.path.join(tmp, "metrics.json")],
        ["analyze", "--trace", trace],
        ["analyze", "--run", "fig_selfheal", *quick],
        ["analyze", "--run", "fig_serve", *quick],
        ["analyze", "--strategies", "none,netagg", "--incast", *quick],
        ["trace", "generate", *quick, "--out", workload],
        ["trace", "inspect", workload],
        ["replay", workload, *quick],
        ["loadgen", "--users", "1000", "--duration", "1", *quick,
         "--out", os.path.join(tmp, "loadgen.json")],
    ]


#: The served requests, held to the centralised aggregate.
QUERY = {"tenant": "t0", "id": "q0", "payload_seed": 1}
GRADIENT = {"tenant": "t0", "id": "g0", "payload_seed": 7,
            "gradient_dims": 1024}


def _check_answers(query: dict, grad: dict) -> List[str]:
    """Problems with the two served answers (empty when exact)."""
    from repro.experiments.common import QUICK
    from repro.serve import AggregationService, ServeConfig

    oracle = AggregationService(ServeConfig(topo=QUICK.topo))
    if query.get("value") != oracle.expected_value({**QUERY,
                                                   "op": "query"}):
        return [f"serve: query answered {query}"]
    expected = oracle.expected_value({**GRADIENT, "op": "mlgrad"})
    value = grad.get("value") or []
    if len(value) != len(expected) or any(
            abs(a - b) > 1e-9 for a, b in zip(value, expected)):
        return ["serve: gradient round is not the centralised sum"]
    return []


def _drive_serve(tmp: str, watch) -> List[str]:
    """Drive a hooked ``repro serve`` child; ``watch(url)`` runs while it
    serves.  The keys it entered are written to ``tmp/serve.json``."""
    from repro.obs import validate_exposition

    out = os.path.join(tmp, "serve.json")
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    boot = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
            f"import check_reach; check_reach.serve_child({out!r})")
    # The child's stderr goes to a file, shown only if the child fails:
    # SIGINT with a connection still closing logs a CancelledError.
    log = open(os.path.join(tmp, "serve.log"), "w+", encoding="utf-8")
    child = subprocess.Popen([sys.executable, "-c", boot], env=env,
                             stdout=subprocess.PIPE, stderr=log, text=True)
    failed = []
    try:
        line = child.stdout.readline()
        base = line.split("listening on ", 1)[1].split()[0]
        host, port = base.rsplit("//", 1)[1].rsplit(":", 1)
        failed += _check_answers(_post(base, "/v1/query", QUERY),
                                 _post(base, "/v1/mlgrad", GRADIENT))
        with urllib.request.urlopen(base + "/metrics", timeout=30) as reply:
            failed += validate_exposition(reply.read().decode("utf-8"))
        if b" 431 " not in _bad_request(host, int(port)):
            failed.append("serve: long header line")
        if watch(base):
            failed.append("watch")
    finally:
        child.send_signal(signal.SIGINT)
        child.communicate(timeout=60)
        with log:
            log.seek(0)
            if child.returncode != 0:
                failed.append(f"serve: exit {child.returncode}")
                sys.stderr.write(log.read()[-4000:])
    return failed


def drive() -> Set[Key]:
    """Run every entry point under the hook; the keys entered."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro import cli
    from repro.obs import validate_trace_file

    recorder = Recorder()
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        recorder.start()
        try:
            for argv in _cli_runs(tmp):
                if _quiet(lambda: cli.main(argv)):
                    failed.append(" ".join(argv))
            validate_trace_file(os.path.join(tmp, "trace.json"))
            # A misspelt experiment is a usage error, not a crash.
            if _quiet(lambda: cli.main(["run", "fig99"]), echo=False) != 1:
                failed.append("run fig99 (unknown experiment)")
            for example in sorted((ROOT / "examples").glob("*.py")):
                if _quiet(lambda: _run_script(example)):
                    failed.append(example.name)
            failed += _drive_serve(tmp, lambda url: _quiet(lambda: cli.main(
                ["watch", "--url", url, "--iterations", "1",
                 "--interval", "0"])))
        finally:
            recorder.stop()
        if failed:
            raise SystemExit(f"check_reach: entry points failed: {failed}")
        with open(os.path.join(tmp, "serve.json"), encoding="utf-8") as fh:
            served = {tuple(key) for key in json.load(fh)}
    return recorder.keys() | served


def run() -> int:
    all_defs = defs()
    unentered, failures = problems(all_defs, drive(), REASONS)
    width = max((len(name) for name in unentered), default=0)
    for name in unentered:
        reason = next((why for key, why in REASONS.items()
                       if _covers(key, name)), "?")
        print(f"{name:<{width}}  {reason}")
    print(f"{len(all_defs)} defs, {len(all_defs) - len(unentered)} "
          f"entered, {len(unentered)} not entered, {len(REASONS)} reasons")
    for line in failures:
        print(line, file=sys.stderr)
    if failures:
        print(f"check_reach: {len(failures)} problem(s)", file=sys.stderr)
        return 1
    print("check_reach: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run())
