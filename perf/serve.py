"""``serve_query`` and ``serve_bulk``: the real-socket serving path.

An in-process ``HttpFrontend(AggregationService(ServeConfig()))`` on
loopback, driven in a closed loop over two keep-alive connections (this
box has two cores; the server is one thread behind one lock, so more
connections only add queueing).  Client and server share one event
loop, so between batches nothing is in flight and the calibration
kernel measures an idle process.

One unit of work is a batch of requests; one op is one request.
``serve_query`` sends small top-k queries, which prices per-request
overhead (HTTP framing, tree construction, telemetry); ``serve_bulk``
sends 1,024-dimension gradient rounds, which prices per-byte cost (the
float codec and the vector merge).  A change to one should barely move
the other.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import time
import zlib
from typing import Any, Dict, List, Sequence, Tuple

from repro.aggbox.functions import TopKFunction
from repro.apps.mlgrad import VectorSumFunction, decode_vector, encode_vector
from repro.serve.http import HttpFrontend
from repro.serve.service import (
    APP_MLGRAD,
    APP_QUERY,
    AggregationService,
    ServeConfig,
)
from repro.wire.records import (
    SearchResult,
    decode_search_results,
    encode_search_results,
)
from repro.workload.openloop import OP_MLGRAD, OP_QUERY, pick_endpoints

from calibrate import quantile, throughput_ops_s
from trace import NULL
from workload import TraceRun, Workload, peak_rss_kb

CONNECTIONS = 2
TENANTS = 8
WORKERS = 8
#: Every n-th response of a batch is decoded and compared with
#: ``AggregationService.expected_value``; every response must be a 200.
CHECK_EVERY = 10

Batch = Tuple[List[float], List[int], List[Tuple[int, bytes]]]


class ServeWorkload(Workload):
    def __init__(self, op: str, path: str, extra: Dict[str, int],
                 batch: int, units: int, min_samples: int,
                 warmup: int) -> None:
        super().__init__()
        self.op, self.path, self._extra = op, path, extra
        self._batch = batch
        self.units = units
        self.min_samples = min_samples
        self._warmup = warmup
        self._next_id = 0
        self._raw_latencies: List[float] = []
        self._non200 = 0

    # -- set-up ------------------------------------------------------------

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.inputs = [
            [self._request(rng, j) for j in range(self._batch)]
            for _ in range(self.units)
        ]
        self.loop = asyncio.new_event_loop()
        self._service = AggregationService(ServeConfig())
        self._frontend = HttpFrontend(self._service)
        self.loop.run_until_complete(self._connect())
        warmup = [self._request(rng, j) for j in range(self._warmup)]
        _, statuses, _ = self.loop.run_until_complete(self._drive(warmup,
                                                                   NULL))
        if any(status != 200 for status in statuses):
            raise RuntimeError(f"warm-up got statuses {set(statuses)}")
        self._rss_ready_kb = peak_rss_kb()

    def _request(self, rng: random.Random, index: int) -> Dict[str, Any]:
        return {"tenant": f"tenant-{index % TENANTS + 1}",
                "payload_seed": rng.randrange(1 << 30),
                "workers": WORKERS, **self._extra}

    async def _connect(self) -> None:
        host, port = await self._frontend.start()
        self._conns = [await asyncio.open_connection(host, port)
                       for _ in range(CONNECTIONS)]

    def close(self) -> None:
        async def shutdown() -> None:
            # Clients first: stopping the server under an open
            # connection logs a CancelledError traceback per connection.
            for _reader, writer in self._conns:
                writer.close()
                await writer.wait_closed()
            handlers = asyncio.all_tasks() - {asyncio.current_task()}
            if handlers:   # the server's per-connection tasks see EOF
                await asyncio.wait(handlers, timeout=5)
            await self._frontend.stop()

        self.loop.run_until_complete(shutdown())
        self.loop.close()

    # -- the timed call ----------------------------------------------------

    def run_unit(self, unit: int, rec) -> Batch:
        return self.loop.run_until_complete(
            self._drive(self.inputs[unit], rec))

    async def _drive(self, requests: Sequence[Dict[str, Any]], rec) -> Batch:
        """Send ``requests`` over the connections, closed loop."""
        latencies = [0.0] * len(requests)
        statuses = [0] * len(requests)
        kept: List[Tuple[int, bytes]] = []
        # Ids are unique for the service's lifetime, warm-up included: a
        # reused id is answered 400 "duplicate request id".
        first_id = self._next_id
        self._next_id += len(requests)
        head = (f"POST {self.path} HTTP/1.1\r\nHost: bench\r\n"
                "Content-Type: application/json\r\nContent-Length: ")

        async def connection(index: int) -> None:
            reader, writer = self._conns[index]
            for j in range(index, len(requests), CONNECTIONS):
                body = json.dumps(
                    {"id": f"b-{first_id + j}", **requests[j]}).encode()
                started = time.perf_counter()
                writer.write(f"{head}{len(body)}\r\n\r\n".encode() + body)
                status_line = await reader.readline()
                length = 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b""):
                        break
                    if line[:15].lower() == b"content-length:":
                        length = int(line[15:])
                payload = await reader.readexactly(length)
                ended = time.perf_counter()
                latencies[j] = ended - started
                statuses[j] = int(status_line.split(None, 2)[1])
                if rec.enabled:
                    rec.record("serve.http.request", started, ended)
                if j % CHECK_EVERY == 0:
                    kept.append((j, payload))

        with rec.span("serve.http.batch"):
            await asyncio.gather(*(connection(i)
                                   for i in range(CONNECTIONS)))
        return latencies, statuses, kept

    # -- output checks (untimed) -------------------------------------------

    def check(self, unit: int, batch: Batch):
        latencies, statuses, kept = batch
        failed = sum(1 for status in statuses if status != 200)
        self._non200 += failed
        values = []
        for j, payload in sorted(kept):
            if statuses[j] != 200:
                continue
            value = json.loads(payload).get("value")
            values.append(value)
            expected = self._service.expected_value(
                {"op": self.op, **self.inputs[unit][j]})
            if not _same_value(value, expected):
                failed += 1
        digest = zlib.crc32(json.dumps(_rounded(values)).encode())
        if not self.same_digest(unit, digest):
            failed = max(failed, 1)
        self._raw_latencies.extend(latencies)
        return len(latencies), failed, latencies

    # -- per-layer probes (traced run only) --------------------------------

    def probes(self, run: TraceRun) -> Dict[str, float]:
        requests = sum(len(batch) for batch in self.inputs)
        grown_kb = peak_rss_kb() - self._rss_ready_kb   # before the ladder's
        ladder = _Ladder(self, run)                 # own deployments
        ms = ladder.ms_per_req({
            "serve.http.dispatch": (ladder.dispatch, ladder.bodies, True),
            "serve.service.handle": (ladder.handle, ladder.with_ids, True),
            "serve.service.handle_quiet":
                (ladder.handle, ladder.with_ids, False),
            "core.platform.execute": (ladder.execute, ladder.planned, True),
            "core.tree.build": (ladder.trees, ladder.planned, True),
            "wire.encode": (ladder.encode, ladder.partials, True),
            "wire.decode": (ladder.decode, ladder.encoded, True),
            "aggbox.merge": (ladder.merge, ladder.partials, True),
        })
        socket_ms = 1e3 / throughput_ops_s(run.samples)
        handle_ms = ms["serve.service.handle"]
        with run.rec.span("obs.exposition"):
            exposition = run.timer.run(0, self._service.metrics_exposition,
                                       lambda text: (len(text), 0, ()))
        return {
            "serve.http.socket_ms_per_req": socket_ms,
            "serve.http.dispatch_ms_per_req": ms["serve.http.dispatch"],
            "serve.service.handle_ms_per_req": handle_ms,
            "core.platform.execute_ms_per_req": ms["core.platform.execute"],
            "serve.http.self_ms_per_req": socket_ms - handle_ms,
            "serve.service.self_ms_per_req":
                handle_ms - ms["core.platform.execute"],
            "core.tree.build_ms_per_req": ms["core.tree.build"],
            "wire.encode_us_per_partial": 1e3 * ms["wire.encode"] / WORKERS,
            "wire.decode_us_per_partial": 1e3 * ms["wire.decode"] / WORKERS,
            "aggbox.merge_us_per_req": 1e3 * ms["aggbox.merge"],
            "aggbox.partials_per_req": ladder.partial_count / requests,
            "obs.telemetry_ms_per_req":
                handle_ms - ms["serve.service.handle_quiet"],
            "obs.exposition_ms": 1e3 * exposition.norm_wall,
            "serve.requests": requests,
            "serve.status_non200": self._non200 + ladder.failed,
            "serve.rss_kb_per_1k_req":
                1e3 * grown_kb / len(self._raw_latencies),
            "serve.http.latency_p99_raw_ms":
                1e3 * quantile(self._raw_latencies, 0.99),
            "serve.response_crc32": self.digest(),
        }


def _same_value(got: Any, expected: Any) -> bool:
    """Equal up to float summation order: a gradient summed up a tree
    differs from the flat sum in the last bits, a top-k list not at all.
    """
    if isinstance(expected, (list, tuple)):
        return (isinstance(got, list) and len(got) == len(expected)
                and all(map(_same_value, got, expected)))
    return math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9)


def _rounded(value: Any) -> Any:
    """``value`` with floats cut to six decimals, for a digest that the
    summation order (it follows the request id) does not change."""
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return round(value, 6) if isinstance(value, float) else value


class _Ladder:
    """The same request stream entered at successively lower public
    entry points, each level on its own fresh deployment.

    A level is (call, prepare, telemetry): ``prepare`` builds the
    level's inputs from a batch (untimed); the call is timed, one batch
    per unit, and returns how many requests failed.  The levels take
    turns batch by batch, so a slow stretch of the machine falls on all
    of them and their differences stay meaningful.
    """

    def __init__(self, workload: ServeWorkload, run: TraceRun) -> None:
        self._w = workload
        self._query = workload.op == OP_QUERY
        self._rec, self._timer = run.rec, run.timer
        self._ids = 0
        self.failed = 0
        self.partial_count = 0

    def ms_per_req(self, levels: Dict[str, tuple]) -> Dict[str, float]:
        services = {name: AggregationService(ServeConfig(telemetry=telemetry))
                    for name, (_, _, telemetry) in levels.items()}
        samples: Dict[str, list] = {name: [] for name in levels}
        for unit, batch in enumerate(self._w.inputs):
            for name, (call, prepare, _) in levels.items():
                service = services[name]
                prepared = prepare(service, batch)
                with self._rec.span(name):
                    samples[name].append(self._timer.run(
                        unit, lambda: call(service, prepared),
                        lambda result: (len(batch),
                                        self._failed(service, result), ())))
        self.failed = sum(s.failed for group in samples.values()
                          for s in group)
        return {name: 1e3 / throughput_ops_s(group)
                for name, group in samples.items()}

    @staticmethod
    def _failed(service, result) -> int:
        """A level returns its failure count, or (request, value) pairs
        to hold against ``expected_value`` here, outside the timing."""
        if isinstance(result, int):
            return result
        return sum(not _same_value(value, service.expected_value(request))
                   for request, value in result)

    # -- inputs ------------------------------------------------------------

    def with_ids(self, service, batch) -> List[Dict[str, Any]]:
        first, self._ids = self._ids, self._ids + len(batch)
        return [{"id": f"l-{first + j}", "op": self._w.op, **request}
                for j, request in enumerate(batch)]

    def bodies(self, service, batch) -> List[bytes]:
        return [json.dumps(request).encode()
                for request in self.with_ids(service, batch)]

    def planned(self, service, batch):
        """(request, master, per-worker partials), the partials built
        here from the public pieces the service builds them from;
        ``execute`` checks the aggregate against ``expected_value``."""
        hosts = sorted(service.platform.topology.hosts())
        out = []
        for request in self.with_ids(service, batch):
            seed = request["payload_seed"]
            master, workers = pick_endpoints(hosts, seed, request["workers"])
            if self._query:
                values = [
                    [SearchResult(
                        doc_id=seed % 100_000 + i * 1000 + j,
                        score=float((seed + i * 37 + j * 13) % 997) / 997.0)
                     for j in range(request["results_per_worker"])]
                    for i in range(len(workers))]
            else:
                values = [
                    [((seed + i * 31 + j * 7) % 1999 - 999) / 999.0
                     for j in range(request["gradient_dims"])]
                    for i in range(len(workers))]
            out.append((request, master, list(zip(workers, values))))
        return out

    def partials(self, service, batch) -> List[List[Any]]:
        """Per request, the list of its workers' partial values."""
        out = [[value for _host, value in partials]
               for _request, _master, partials in self.planned(service,
                                                               batch)]
        return out

    def encoded(self, service, batch) -> List[List[bytes]]:
        encode = encode_search_results if self._query else encode_vector
        return [[encode(value) for value in values]
                for values in self.partials(service, batch)]

    # -- levels ------------------------------------------------------------

    def dispatch(self, service, bodies: List[bytes]) -> int:
        frontend = HttpFrontend(service)

        async def run() -> int:
            failed = 0
            for body in bodies:
                status, _ = await frontend.dispatch("POST", self._w.path,
                                                    body)
                failed += status != 200
            return failed

        return self._w.loop.run_until_complete(run())

    def handle(self, service, requests) -> int:
        return sum(service.handle(request)["status"] != 200
                   for request in requests)

    def execute(self, service, planned) -> list:
        app = APP_QUERY if self._query else APP_MLGRAD
        answered = []
        for request, master, partials in planned:
            value = service.platform.execute_request(
                app, request["id"], master, partials,
                tenant=request["tenant"]).value
            if self._query:
                value = [[r.doc_id, r.score] for r in value]
            answered.append((request, list(value)))
        return answered

    def trees(self, service, planned) -> int:
        for request, master, partials in planned:
            service.platform.build_trees(request["id"], master,
                                         [host for host, _ in partials])
        return 0

    def encode(self, service, partials) -> int:
        encode = encode_search_results if self._query else encode_vector
        for values in partials:
            for value in values:
                encode(value)
        return 0

    def decode(self, service, encoded) -> int:
        decode = decode_search_results if self._query else decode_vector
        for buffers in encoded:
            for buffer in buffers:
                decode(buffer)
        return 0

    def merge(self, service, partials) -> int:
        function = (TopKFunction(k=service.config.k) if self._query
                    else VectorSumFunction())
        for values in partials:
            function.merge(values)
            self.partial_count += len(values)
        return 0


def serve_query() -> ServeWorkload:
    return ServeWorkload(OP_QUERY, "/v1/query", {"results_per_worker": 4},
                         batch=100, units=4, min_samples=40, warmup=100)


def serve_bulk() -> ServeWorkload:
    return ServeWorkload(OP_MLGRAD, "/v1/mlgrad", {"gradient_dims": 1024},
                         batch=20, units=4, min_samples=40, warmup=20)
