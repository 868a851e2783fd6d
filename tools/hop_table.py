#!/usr/bin/env python
"""Reproduce ARCHITECTURE's "The box hop" table on ``serve_query`` requests,
and its ``serve_bulk`` request budget.

A box hop is one ``_Request._feed`` call: frame a serialised partial,
cut it into TCP-segment-sized pieces, and hand them to the box
(reassemble, decode, intake, and on the delivery that completes the
box's fan-in a merge, an encode and a ``box.emit`` span), then charge
the send's clock cost.  The
script prices a hop from outside ``src/`` -- it wraps the hop's pieces
at run time and adds no instrumentation to the package:

1. **Hop total.**  Two ``perf_counter`` reads around every ``_feed``
   call of ``--requests`` real ``serve_query``-shaped requests through
   ``AggregationService.handle``; the mean per hop of each of
   ``--rounds`` rounds, and the median round.  Once with telemetry on
   (the default service) and once under ``ServeConfig(telemetry=False)``,
   the two alternating round by round.
2. **Census.**  One more batch runs with counting wrappers on the hop's
   callables (``frame``, ``ChunkReassembler``, the box's ``_binding`` /
   ``_state`` lookups, the codec, ``tree_aggregate``, the fault oracle)
   and reads the flight recorder, to learn how often a hop calls each
   piece and with which arguments.  Only calls made inside a ``_feed``
   count.
3. **Rows.**  Each piece's cost per call is the ``timeit``-style minimum
   over replays of the captured arguments (statement-level pieces --
   the duplicate check, the counter, the completion test, the clock --
   replay the same statement on the same shapes); a row is calls per
   hop times cost per call.  Every round prices the rows right after
   timing its hop total, so a change in the machine's load moves both
   alike; "the rest" (the round's hop total minus its rows: the bodies
   and calls of ``_feed`` and the intake, ``_send_cost``'s arithmetic)
   is taken per round.  The table prints each row's median over the
   rounds and the median rest.  Minima are floors, so the rest stays an
   upper bound.
4. **Bulk request.**  A second table prices one ``serve_bulk``-shaped
   request (8 workers x 1,024-dim gradients) through ``handle``:
   payload synthesis (``_mlgrad_partials``), ``execute_request`` and,
   inside it, ``VectorSumFunction.merge`` by the number of non-empty
   inputs and the boxes' ``encode_vector`` / ``decode_vector``, each
   timed in place by a wrapper.  The hops are what those leave of
   ``execute_request`` (framing, segments, reassembly, intake, probes,
   records); the rest of ``handle`` is ``handle`` minus synthesis and
   ``execute_request``.  The response's JSON encoding, which the HTTP
   front-end does after ``handle``, is timed on its own.  Rows are the
   median over ``--rounds`` rounds of the mean per request.
5. **Control.**  The last row of both tables times fixed work that no
   change under ``src/`` can touch -- ``json.dumps`` of a constant list
   of 1,024 floats -- in the same rounds as the table's totals.  When
   two runs (say a parent's tree and a change's) differ in this row,
   that part of their gap is machine drift (load, clock, allocator
   state), not the change.

Run from the repo root::

    PYTHONPATH=src python tools/hop_table.py                  # 10 x 400
    PYTHONPATH=src python tools/hop_table.py --requests 50 --rounds 2

Prints the tables in Markdown and exits 1 when a row is negative or a
request is not answered 200.  Timings depend on the machine; compare
two trees by running the script against each on the same one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.aggbox import box as box_module
from repro.aggbox.box import AggBoxRuntime, RequestState
from repro.apps.mlgrad import VectorSumFunction
from repro.core import platform as platform_module
from repro.obs import METRICS, FlightRecorder
from repro.obs.live.recorder import RING_CAPACITY
from repro.serve import AggregationService, ServeConfig
from repro.serve.service import APP_MLGRAD
from repro.wire.framing import ChunkReassembler

APP = "serve-solr"
#: The ``serve_query`` request shape (``perf/serve.py``).
QUERY = {"op": "query", "workers": 8, "results_per_worker": 4}
#: The ``serve_bulk`` request shape (``perf/serve.py``).
BULK = {"op": "mlgrad", "workers": 8, "gradient_dims": 1024}
TENANTS = 8
WARMUP = 20
#: Census batch size: small enough that the flight recorder's ring
#: still holds every record of the batch.
CENSUS = 40
#: Replays per timing repeat, and repeats (the minimum is kept).
REPLAYS = 400
REPEATS = 7
#: Captured argument tuples kept per piece.
KEEP = 64
#: The control row's fixed work: ``json.dumps`` of these floats,
#: ``CONTROL_CALLS`` times a round.
CONTROL = [i / 7 for i in range(1024)]
CONTROL_CALLS = 50
CONTROL_ROW = "control: `json.dumps` of 1,024 fixed floats (no `src/` code)"


def _requests(service: AggregationService, prefix: str, n: int,
              seed: int, shape: Dict[str, Any] = QUERY) -> List[dict]:
    """Answer ``n`` requests; any status but 200 ends the run."""
    responses = []
    for i in range(n):
        response = service.handle({
            **shape, "id": f"{prefix}-{i}",
            "tenant": f"tenant-{i % TENANTS + 1}",
            "payload_seed": seed * 1_000_003 + i})
        if response["status"] != 200:
            sys.exit(f"request {prefix}-{i} answered {response['status']}: "
                     f"{response.get('reason')}")
        responses.append(response)
    return responses


class _Hops:
    """Wraps ``_Request._feed``: times every hop, or marks the census."""

    def __init__(self) -> None:
        self.inside = False
        self.times: List[float] = []
        self._original = platform_module._Request._feed

    def __enter__(self) -> "_Hops":
        original, hops = self._original, self

        def timed(request, box_id, source, serialised):
            hops.inside = True
            started = time.perf_counter()
            try:
                return original(request, box_id, source, serialised)
            finally:
                hops.times.append(time.perf_counter() - started)
                hops.inside = False

        platform_module._Request._feed = timed
        return self

    def __exit__(self, *exc: object) -> None:
        platform_module._Request._feed = self._original


def warm_service(telemetry: bool) -> AggregationService:
    """A service that has answered the warm-up requests."""
    service = AggregationService(ServeConfig(telemetry=telemetry))
    _requests(service, "warm", WARMUP, seed=0)
    return service


def hop_round(service: AggregationService, r: int, requests: int) -> float:
    """Mean µs per hop of round ``r``: ``requests`` timed requests."""
    with _Hops() as hops:
        _requests(service, f"r{r}", requests, seed=r + 1)
    return sum(hops.times) / len(hops.times) * 1e6


class _Census:
    """Counts and captures the calls each piece makes inside a hop."""

    def __init__(self, hops: _Hops) -> None:
        self.hops = hops
        self.calls: Counter = Counter()
        self.args: Dict[str, List[tuple]] = {}
        self._undo: List[Callable[[], None]] = []

    def wrap(self, owner: Any, name: str, piece: str,
             keep: Callable[..., tuple] = lambda *a: a) -> None:
        original = getattr(owner, name)
        census = self

        def counted(*args, **kwargs):
            if census.hops.inside:
                census.calls[piece] += 1
                kept = census.args.setdefault(piece, [])
                if len(kept) < KEEP:
                    kept.append(keep(*args))
            return original(*args, **kwargs)

        setattr(owner, name, counted)
        self._undo.append(lambda: setattr(owner, name, original))

    def undo(self) -> None:
        for step in reversed(self._undo):
            step()


def census(requests: int) -> Tuple[int, Dict[str, Any], Any]:
    """``(hops, census, service)`` of one small traced batch."""
    service = AggregationService(ServeConfig())
    _requests(service, "warm", WARMUP, seed=0)
    platform = service.platform
    counter = METRICS.counter("aggbox.partials")
    with _Hops() as hops:
        seen = _Census(hops)
        seen.wrap(platform_module, "frame", "frame")
        seen.wrap(ChunkReassembler, "__init__", "reassembler")
        seen.wrap(ChunkReassembler, "feed", "feed",
                  keep=lambda reassembler, chunk: (id(reassembler), chunk))
        if hasattr(box_module, "whole_frame"):
            seen.wrap(box_module, "whole_frame", "whole_frame")
        seen.wrap(AggBoxRuntime, "submit_chunk", "chunks",
                  keep=lambda *a: ())
        seen.wrap(AggBoxRuntime, "_binding", "_binding")
        seen.wrap(AggBoxRuntime, "_state", "_state")
        seen.wrap(box_module, "tree_aggregate", "merge")
        for info in platform.topology.all_boxes():
            binding = platform.box_runtime(info.box_id).binding(APP)
            seen.wrap(binding, "deserialise", "decode")
            seen.wrap(binding, "serialise", "encode")
        oracle = platform._faults
        for name in ("slowdown", "degradation", "gray_factor"):
            if hasattr(oracle, name):
                seen.wrap(oracle, name, f"oracle.{name}")
        before = counter.value
        recorder = service.telemetry.recorder
        first = recorder._next_id
        try:
            _requests(service, "census", requests, seed=99)
        finally:
            seen.undo()
        seen.calls["partials"] = counter.value - before
    records: Dict[str, List[dict]] = {}
    for span in recorder.spans:
        if span.seq >= first and span.layer in ("platform", "aggbox") \
                and span.name in ("platform.deliver", "box.emit"):
            records.setdefault(span.name, []).append(span.tags)
    for instant in recorder.instants:
        if instant.seq >= first and instant.layer == "aggbox":
            records.setdefault(instant.name, []).append(instant.tags)
    return len(hops.times), {"calls": seen.calls, "args": seen.args,
                             "records": records}, service


def per_call(fn: Callable[..., Any], args: Sequence[tuple]) -> float:
    """Minimum over repeats of the mean µs of ``fn(*a)`` over ``args``."""
    args = list(args) * (REPLAYS // max(1, len(args)) + 1)
    args = args[:REPLAYS]
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for a in args:
            fn(*a)
        best = min(best, time.perf_counter() - started)
    return best / len(args) * 1e6


def control_us() -> float:
    """Mean µs of one ``json.dumps(CONTROL)`` over a round's calls."""
    started = time.perf_counter()
    for _ in range(CONTROL_CALLS):
        json.dumps(CONTROL)
    return (time.perf_counter() - started) / CONTROL_CALLS * 1e6


def fresh_feed(feeds: Sequence[tuple]) -> float:
    """µs of one ``feed``: the captured streams (runs of chunks fed to
    one reassembler) replayed on new reassemblers, construction
    excluded."""
    streams: List[List[bytes]] = []
    last = None
    for owner, chunk in feeds:
        if owner != last:
            streams.append([])
            last = owner
        streams[-1].append(chunk)
    if not streams:
        return 0.0
    best = float("inf")
    for _ in range(REPEATS):
        fresh = [ChunkReassembler() for _ in streams]
        started = time.perf_counter()
        for reassembler, stream in zip(fresh, streams):
            for chunk in stream:
                reassembler.feed(chunk)
        best = min(best, time.perf_counter() - started)
    return best / len(feeds) * 1e6


def record_cost(name: str, tags: Sequence[dict], span: bool) -> float:
    """µs of one recorded span (begin + end) or instant on a full ring."""
    recorder = FlightRecorder()
    for i in range(2 * RING_CAPACITY):
        recorder.end(recorder.begin("warm", float(i), layer="platform"),
                     float(i))
        recorder.instant("warm", float(i), layer="platform")
    if span:
        def one(t):
            recorder.end(recorder.begin(name, 1.0, layer="platform", **t),
                         1.0)
    else:
        def one(t):
            recorder.instant(name, 1.0, layer="aggbox", **t)
    return per_call(one, [(t,) for t in tags])


def rows(hop_count: int, seen: Dict[str, Any], service) -> List[tuple]:
    """``(piece, calls per hop, µs per call)`` for every priced piece.

    A piece the hop never calls (one the other tree has) reads 0."""
    calls, args, records = seen["calls"], seen["args"], seen["records"]
    platform = service.platform
    runtime = platform.box_runtime(
        next(iter(platform.topology.all_boxes())).box_id)
    runtime._state(APP, "hop@t0")
    state = RequestState(app=APP, request_id="hop@t0", expected=8,
                         sources=[f"worker:{i}" for i in range(4)],
                         partials=[None] * 4)
    counter = METRICS.counter("hop_table.scratch")
    binding = runtime.binding(APP)
    segment = platform_module._SEGMENT_BYTES

    def price(label: str, piece: str, cost: Callable[[], float]) -> tuple:
        per_hop = calls.get(piece, 0) / hop_count
        return (label, per_hop, cost() if per_hop else 0.0)

    def replay(fn: Callable[..., Any], piece: str) -> Callable[[], float]:
        return lambda: per_call(fn, args[piece])

    def clock_update(c: Any) -> None:
        c.clock = max(c.clock, c._clock)
        c._clock += 0.0

    out = [
        price("frame (`frame`)", "frame", replay(platform_module.frame,
                                                 "frame")),
        price("segment (slice)", "chunks",
              lambda: per_call(lambda p: p[0:segment], args["frame"])),
        price("`ChunkReassembler` construction", "reassembler",
              lambda: per_call(ChunkReassembler, [()])),
        price("single-frame check (`whole_frame`)", "whole_frame",
              replay(getattr(box_module, "whole_frame", None),
                     "whole_frame")),
        price("reassemble (`ChunkReassembler.feed`)", "feed",
              lambda: fresh_feed(args["feed"])),
        price("decode (`decode_search_results`)", "decode",
              replay(binding.deserialise, "decode")),
        price("`_binding`", "_binding",
              lambda: per_call(runtime._binding, [(APP,)])),
        price("`_state`", "_state",
              lambda: per_call(runtime._state, [(APP, "hop@t0")])),
        price("duplicate check", "partials",
              lambda: per_call(lambda s: s in state.processed_sources
                               or s in state.sources, [("box:x",)])),
        price("`aggbox.partials` inc", "partials",
              lambda: per_call(counter.inc, [()])),
        price("completion test", "partials",
              lambda: per_call(lambda s: s.emitted or not s.complete,
                               [(state,)])),
        price("merge (`tree_aggregate`)", "merge",
              replay(box_module.tree_aggregate, "merge")),
        price("encode (`encode_search_results`)", "encode",
              replay(binding.serialise, "encode")),
    ]
    for name, span in (("platform.deliver", True), ("box.emit", True),
                       ("box.partial", False)):
        tags = records.get(name, [])
        out.append((f"record `{name}`", len(tags) / hop_count,
                    record_cost(name, tags[:KEEP], span) if tags else 0.0))
    for piece in sorted(p for p in calls if p.startswith("oracle.")):
        name = piece.split(".", 1)[1]
        out.append(price(f"`_send_cost` oracle: `{name}`", piece,
                         replay(getattr(platform._faults, name), piece)))
    clocks = type("Clocks", (), {"clock": 1.0, "_clock": 2.0})()
    out.append(("clock update", 1.0,
                per_call(clock_update, [(clocks,)])))
    return out


class _Stopwatch:
    """Wraps callables in place: seconds and calls, by label."""

    def __init__(self) -> None:
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self._undo: List[Callable[[], None]] = []

    def wrap(self, owner: Any, name: str,
             label: Callable[..., str]) -> None:
        original = getattr(owner, name)
        watch = self

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                key = label(*args)
                watch.seconds[key] += time.perf_counter() - started
                watch.calls[key] += 1

        setattr(owner, name, timed)
        self._undo.append(lambda: setattr(owner, name, original))

    def undo(self) -> None:
        for step in reversed(self._undo):
            step()


def _arity(_function: Any, items: Sequence[Any]) -> str:
    inputs = sum(1 for v in items if v)
    return f"merge, {inputs} input{'s' if inputs != 1 else ''}"


def bulk_rows(requests: int, rounds: int) -> List[tuple]:
    """``(piece, calls per request, µs per call)`` of ``serve_bulk``
    requests, each the median over rounds."""
    service = AggregationService(ServeConfig())
    _requests(service, "warm", WARMUP, seed=0, shape=BULK)
    watch = _Stopwatch()
    watch.wrap(AggregationService, "handle", lambda *a: "handle")
    watch.wrap(AggregationService, "_mlgrad_partials",
               lambda *a: "synthesis")
    watch.wrap(platform_module.NetAggPlatform, "execute_request",
               lambda *a: "execute")
    watch.wrap(VectorSumFunction, "merge", _arity)
    for info in service.platform.topology.all_boxes():
        binding = service.platform.box_runtime(info.box_id).binding(
            APP_MLGRAD)
        watch.wrap(binding, "serialise", lambda *a: "encode")
        watch.wrap(binding, "deserialise", lambda *a: "decode")
    per_round: List[Dict[str, Tuple[float, float]]] = []
    try:
        for r in range(rounds):
            watch.seconds.clear()
            watch.calls.clear()
            responses = _requests(service, f"bulk{r}", requests,
                                  seed=r + 1, shape=BULK)
            started = time.perf_counter()
            for response in responses:
                json.dumps(response).encode("utf-8")
            json_s = time.perf_counter() - started
            row = {key: (watch.calls[key] / requests,
                         watch.seconds[key] / watch.calls[key] * 1e6)
                   for key in watch.calls}
            row["json"] = (1.0, json_s / requests * 1e6)
            row["control"] = (1.0, control_us())
            inside = sum(seconds for key, seconds in watch.seconds.items()
                         if key.startswith("merge")
                         or key in ("encode", "decode"))
            row["hops"] = (1.0, (watch.seconds["execute"] - inside)
                           / requests * 1e6)
            row["rest"] = (1.0, (watch.seconds["handle"]
                                 - watch.seconds["synthesis"]
                                 - watch.seconds["execute"])
                           / requests * 1e6)
            per_round.append(row)
    finally:
        watch.undo()

    def median(key: str) -> Tuple[float, float]:
        rows = [row.get(key, (0.0, 0.0)) for row in per_round]
        return (statistics.median(calls for calls, _ in rows),
                statistics.median(cost for _, cost in rows))

    merges = sorted({key for row in per_round for key in row
                     if key.startswith("merge")})
    out = [("synthesis (`_mlgrad_partials`)", *median("synthesis")),
           ("`execute_request`", *median("execute"))]
    out += [(f"of which {key} (`VectorSumFunction.merge`)", *median(key))
            for key in merges]
    out += [("of which encode (`encode_vector`)", *median("encode")),
            ("of which decode (`decode_vector`)", *median("decode")),
            ("of which the hops (the rest of `execute_request`)",
             *median("hops")),
            ("the rest of `handle` (checks, report, telemetry)",
             *median("rest")),
            ("**`handle` total**", *median("handle")),
            ("response JSON (`json.dumps`, after `handle`)",
             *median("json")),
            (CONTROL_ROW, *median("control"))]
    return out


def print_bulk(table: List[tuple], requests: int, rounds: int) -> List[str]:
    """Print the bulk table; returns the pieces whose row is negative."""
    print(f"\n`serve_bulk` request (8 workers x 1,024 dims); µs per "
          f"request, median of {rounds} rounds of {requests} requests\n")
    print("| piece | per request | µs per call | µs per request |")
    print("|---|---|---|---|")
    bad = []
    for piece, weight, cost in table:
        print(f"| {piece} | {weight:.2f} | {cost:.1f} | {weight * cost:.1f} |")
        if weight * cost < 0:
            bad.append(piece)
    return bad


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--requests", type=int, default=400,
                        help="requests per timing round (default 400)")
    parser.add_argument("--rounds", type=int, default=10,
                        help="timing rounds per side (default 10)")
    opts = parser.parse_args(argv or None)
    n = min(CENSUS, opts.requests)
    hop_count, seen, service = census(n)
    on_service, off_service = warm_service(True), warm_service(False)
    ons, offs, tables, rests, controls = [], [], [], [], []
    for r in range(opts.rounds):
        ons.append(hop_round(on_service, r, opts.requests))
        controls.append(control_us())
        tables.append(rows(hop_count, seen, service))
        rests.append(ons[-1] - sum(weight * cost
                                   for _, weight, cost in tables[-1]))
        offs.append(hop_round(off_service, r, opts.requests))
    table = [(piece, weight,
              statistics.median(t[i][2] for t in tables))
             for i, (piece, weight, _) in enumerate(tables[0])]
    rest = statistics.median(rests)
    on, off = statistics.median(ons), statistics.median(offs)
    print(f"{hop_count / n:.1f} hops a request; µs per hop, "
          f"{opts.rounds} rounds of {opts.requests} requests\n")
    print("| piece | per hop | µs per call | µs per hop |")
    print("|---|---|---|---|")
    bad = []
    for piece, weight, cost in table:
        print(f"| {piece} | {weight:.2f} | {cost:.3f} | {weight * cost:.2f} |")
        if weight * cost < 0:
            bad.append(piece)
    print(f"| the rest (`_feed` and intake bodies, `_send_cost` arithmetic) "
          f"| 1 | | {rest:.2f} |")
    print(f"| **hop total, telemetry on** | | | **{on:.2f}** |")
    print(f"| hop total, telemetry off | | | {off:.2f} |")
    print(f"| {CONTROL_ROW} | | | {statistics.median(controls):.2f} |")
    if rest < 0:
        bad.append("the rest")
    bad += print_bulk(bulk_rows(opts.requests, opts.rounds),
                      opts.requests, opts.rounds)
    if bad:
        print(f"negative rows: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
