"""The live multi-tenant aggregation service over a NetAgg platform.

``AggregationService`` is the request-facing half of ``repro.serve``:
it owns one :class:`repro.core.platform.NetAggPlatform` deployment
(topology + agg boxes + registered apps) and turns JSON-shaped requests
into JSON-shaped responses with HTTP-style statuses:

- ``200`` -- the request executed end-to-end through the aggregation
  trees; the body carries the exact aggregate value and the request's
  latency (queueing wait + service time) on the virtual clock;
- ``206`` -- the aggregate is *partial*: workers behind a network
  partition were dropped (platform partial delivery) and the response
  carries a ``completeness`` record alongside the value.  A 206 is
  only returned when the covered fraction clears the
  :data:`MIN_COMPLETENESS` floor; below the floor the request is a ``503``
  (``incomplete``) instead -- a too-small answer is no answer;
- ``429`` -- the per-tenant admission gate refused the request
  (:class:`repro.core.admission.AdmissionNack`: rate-limit), before
  it touched any tree;
- ``503`` -- the service failed fast: every agg box's circuit
  breaker is open, the request queued longer than ``max_queue_wait``
  (front-door load shedding), a partition cut off all (or too many)
  of the request's workers;
- ``400``/``404``/``413``/``500`` -- malformed request, unknown op,
  oversized body (the HTTP front-end's frame limit), or an internal
  execution error (always a well-formed JSON body).

Two request kinds match the paper's served workloads: ``query`` (a
Solr-style partition/aggregate top-k search) and ``mlgrad`` (one
distributed gradient-aggregation round).  Payloads are either given
explicitly (``results``/``gradients``) or synthesised deterministically
from a ``payload_seed`` -- the loadgen path.

Concurrency: the platform is single-threaded on its deterministic
virtual clock, so the asyncio front-end serialises requests through
:meth:`handle_async` (an ``asyncio.Lock``; FIFO, hence deterministic)
and open-loop arrivals queue via
:meth:`NetAggPlatform.begin_request` -- latency = queueing wait +
service time, exactly like a busy single-worker server.
"""

from __future__ import annotations

import asyncio
import itertools
import math
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.aggbox.functions import TopKFunction
from repro.aggregation import deploy_boxes
from repro.apps.mlgrad import (
    Vector,
    VectorSumFunction,
    decode_vector,
    encode_vector,
)
from repro.core.admission import AdmissionController, AdmissionNack
from repro.core.partition import SubtreeUnreachable
from repro.core.platform import NetAggPlatform
from repro.faults import FaultSchedule, PlatformFaultInjector
from repro.obs import METRICS, get_tracer, set_tracer
from repro.obs.live import LiveTelemetry, SloObjective, render_prometheus
from repro.serve.stats import (
    STATUS_BAD_REQUEST,
    STATUS_INTERNAL,
    STATUS_NOT_FOUND,
    STATUS_OK,
    STATUS_PARTIAL,
    STATUS_REJECTED,
    STATUS_UNAVAILABLE,
    ServeReport,
)
from repro.topology.threetier import QUICK_TOPO, ThreeTierParams, three_tier
from repro.wire.records import (
    SearchResult,
    decode_search_results,
    encode_search_results,
)
from repro.workload.openloop import OP_MLGRAD, OP_QUERY, pick_endpoints

#: App names the service registers on its platform.
APP_QUERY = "serve-solr"
APP_MLGRAD = "serve-mlgrad"

#: Top-k of query requests: every service answered top-10 queries.
TOP_K = 10

#: Smallest worker fraction a partial aggregate may cover and still be
#: answered (206); below it every tenant gets a 503.
MIN_COMPLETENESS = 0.5

#: Good-event fraction each tenant's SLO objective requires.
SLO_TARGET = 0.9

#: Burn-rate windows (virtual seconds): fast 5x-budget catch, slow
#: 1x-budget confirmation (Google SRE multi-window pattern).  The slow
#: window is also the dashboard/exposition window.
SLO_FAST_WINDOW = 1.0
SLO_SLOW_WINDOW = 5.0

#: Most values one seed-synthesised request may ask for: workers x
#: ``results_per_worker`` (query) or workers x ``gradient_dims``
#: (mlgrad).  A body of a hundred bytes could otherwise buy unbounded
#: work under the service lock (8 workers x 200,000 results took 11 s);
#: the HTTP frame limit bounds only explicit payloads.  The ceiling is
#: twice a ``serve_bulk`` round (8 x 1,024) and 256 times the loadgen's
#: largest request (8 x 8); at the ceiling one query costs about 100 ms
#: of :meth:`AggregationService.handle` and one gradient round about
#: 9 ms.
MAX_SYNTHESISED_VALUES = 1 << 14

#: Synthesised gradients: element j of worker i is
#: ``((seed + 31*i + 7*j) % 1999 - 999) / 999.0``.  It depends on j only
#: through ``7*j mod 1999``, and 1999 is prime, so every vector is a run
#: of this one cycle (entry m has residue ``7*m``) starting at
#: ``(seed + 31*i) * 7^-1 mod 1999``.  Each entry is computed by the
#: same expression, so the floats are bit-identical.  A C double array,
#: so a vector is a slice of it (one copy) and encodes without a float
#: object per element.
_GRAD_CYCLE = array("d", [((7 * m) % 1999 - 999) / 999.0
                          for m in range(1999)])
_INVERSE_OF_7 = pow(7, -1, 1999)


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's serving contract: admitted rate and latency SLO.

    Every field must be finite and > 0 (NaN fails too): a zero rate or
    burst admits nothing, and no request meets a non-positive SLO.
    """

    rate: float = 50.0    #: sustained admitted requests per virtual second
    burst: float = 10.0   #: token-bucket burst allowance
    slo: float = 0.25     #: latency SLO (virtual seconds)

    def __post_init__(self) -> None:
        for name in ("rate", "burst", "slo"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")


@dataclass(frozen=True)
class ServeConfig:
    """Deployment configuration of one :class:`AggregationService`.

    ``admission=False`` removes the per-tenant gate entirely (the
    ``fig_serve`` ablation arm); everything else stays identical.
    Every box has a circuit breaker (:mod:`repro.core.breaker`), and
    the shim runs the default :class:`repro.faults.RetryPolicy`.
    """

    #: Topology preset the platform deploys over.
    topo: ThreeTierParams = QUICK_TOPO
    #: Default per-tenant policy (tenants without an override).
    default_policy: TenantPolicy = TenantPolicy()
    #: Per-tenant overrides.
    tenants: Mapping[str, TenantPolicy] = field(default_factory=dict)
    #: Per-tenant token-bucket admission on/off.
    admission: bool = True
    #: 503-shed requests that queued longer than this (None disables).
    max_queue_wait: Optional[float] = 1.0
    #: Fault schedule replayed against the platform (box failures etc.).
    faults: Optional[FaultSchedule] = None
    #: Partition tolerance (partial delivery, hedging, gray avoidance)
    #: on/off; off is the fail-stop baseline, where a partitioned
    #: worker fails the whole request.
    partition: bool = False
    #: Live telemetry plane (windowed series, SLO burn-rate alerting,
    #: anomaly-triggered flight recorder) on/off.
    telemetry: bool = True
    #: Directory flight-recorder dumps are written to (None keeps them
    #: in memory only, on the recorder's bounded ``dumps`` ring).
    dump_dir: Optional[str] = None

    @property
    def k(self) -> int:
        """Top-k of query requests (:data:`TOP_K`; not settable)."""
        return TOP_K

    def policy_for(self, tenant: str) -> TenantPolicy:
        """``tenant``'s override, else the default: the SLO its
        requests are scored by and the bucket admission gives it."""
        return self.tenants.get(tenant, self.default_policy)


class AggregationService:
    """A live NetAgg deployment behind a request/response interface."""

    def __init__(self, config: ServeConfig = ServeConfig()) -> None:
        self.config = config
        self._topo = three_tier(config.topo)
        deploy_boxes(self._topo)
        self._box_ids = sorted(
            info.box_id for info in self._topo.all_boxes())
        self._platform = NetAggPlatform(
            self._topo,
            faults=PlatformFaultInjector(config.faults or FaultSchedule(),
                                         topo=self._topo),
            breakers=True,
            admission=(AdmissionController(config.policy_for)
                       if config.admission else None),
            partition=config.partition,
        )
        self._platform.register_app(
            APP_QUERY, TopKFunction(k=TOP_K),
            encode_search_results, decode_search_results)
        self._platform.register_app(
            APP_MLGRAD, VectorSumFunction(), encode_vector, decode_vector)
        self._hosts = sorted(self._topo.hosts())
        #: Built by the first :meth:`handle_async`, inside its running
        #: loop: on 3.9 an ``asyncio.Lock`` built here, with no loop
        #: running, raises.
        self._lock: Optional[asyncio.Lock] = None
        #: Numbers the requests that arrive without an ``id``.
        self._anonymous = itertools.count()
        self.report = ServeReport(slo=config.default_policy.slo)
        #: The live telemetry plane (None when ``config.telemetry`` is
        #: off -- e.g. the capacity-probe scratch deployment).
        self.telemetry: Optional[LiveTelemetry] = None
        if config.telemetry:
            self.telemetry = LiveTelemetry(
                template=SloObjective(
                    key="",
                    target=SLO_TARGET,
                    fast_window=SLO_FAST_WINDOW,
                    slow_window=SLO_SLOW_WINDOW,
                ),
                window=SLO_SLOW_WINDOW,
                dump_dir=config.dump_dir,
            )

    @property
    def platform(self) -> NetAggPlatform:
        return self._platform

    @property
    def clock(self) -> float:
        return self._platform.clock

    # -- payloads ----------------------------------------------------------

    def _endpoints(self, request: Mapping[str, Any]) -> Tuple[str, List[str]]:
        """A request's master and worker hosts: one seeded draw."""
        workers = int(request.get("workers", 8))
        if workers < 1:
            raise ValueError(f"'workers' must be >= 1, got {workers}")
        return pick_endpoints(
            self._hosts, int(request.get("payload_seed", 0)), workers)

    def _query_partials(
        self, request: Mapping[str, Any],
        workers: Optional[List[str]] = None,
    ) -> List[Tuple[str, List[SearchResult]]]:
        """Per-worker scored results, explicit or seed-synthesised.

        ``workers``: the hosts :meth:`_endpoints` drew, when the caller
        already has them; only a synthesised payload uses (or draws) them.
        """
        if "results" in request:
            rows = request["results"]
            if not isinstance(rows, list) or not rows:
                raise ValueError("'results' must be a non-empty list "
                                 "of per-worker [doc_id, score] lists")
            partials = []
            for index, worker_rows in enumerate(rows):
                host = self._hosts[index % len(self._hosts)]
                partials.append((host, [
                    SearchResult(doc_id=int(doc), score=float(score))
                    for doc, score in worker_rows
                ]))
            return partials
        seed = int(request.get("payload_seed", 0))
        per_worker = int(request.get("results_per_worker", 4))
        if workers is None:
            _, workers = self._endpoints(request)
        return [
            (host, [
                SearchResult(
                    doc_id=seed % 100_000 + i * 1000 + j,
                    score=float((seed + i * 37 + j * 13) % 997) / 997.0,
                )
                for j in range(per_worker)
            ])
            for i, host in enumerate(workers)
        ]

    def _mlgrad_partials(
        self, request: Mapping[str, Any],
        workers: Optional[List[str]] = None,
    ) -> List[Tuple[str, Vector]]:
        """Per-worker gradient vectors, explicit or seed-synthesised."""
        if "gradients" in request:
            rows = request["gradients"]
            if not isinstance(rows, list) or not rows:
                raise ValueError("'gradients' must be a non-empty list "
                                 "of equal-length float vectors")
            return [
                (self._hosts[index % len(self._hosts)],
                 [float(v) for v in vector])
                for index, vector in enumerate(rows)
            ]
        seed = int(request.get("payload_seed", 0))
        dims = int(request.get("gradient_dims", 8))
        if workers is None:
            _, workers = self._endpoints(request)
        return [(host, _gradient(seed + i * 31, dims))
                for i, host in enumerate(workers)]

    def expected_value(self, request: Mapping[str, Any]) -> Any:
        """The centralised (ground-truth) aggregate of a request.

        Used by exactness tests and retries: whatever path a request
        takes through the trees -- including rewired, degraded or
        retried paths -- its 200 response must carry exactly this value.
        """
        op = request.get("op")
        if op == OP_QUERY:
            partials = self._query_partials(request)
            merged = TopKFunction(k=TOP_K).merge(
                [results for _, results in partials])
            return _encode_results(merged)
        if op == OP_MLGRAD:
            partials = self._mlgrad_partials(request)
            return VectorSumFunction().merge(
                [vector for _, vector in partials])
        raise ValueError(f"unknown op {op!r}")

    # -- request handling --------------------------------------------------

    def handle(self, request: Mapping[str, Any],
               arrival: Optional[float] = None) -> Dict[str, Any]:
        """Serve one request synchronously (see the module docstring).

        ``arrival`` is the request's arrival time on the virtual clock
        (defaults to "now"); latency accounts queueing from then.
        """
        tenant = str(request.get("tenant", "anonymous"))
        op = str(request.get("op", ""))
        # A request without an id gets one of its own (a shared default
        # would be a duplicate from the tenant's second request on).
        request_id = str(request["id"]) if "id" in request \
            else f"{tenant}:{op}:anon-{next(self._anonymous)}"
        slo = self.config.policy_for(tenant).slo
        if arrival is None:
            arrival = self._platform.clock
        telemetry = self.telemetry
        # Always-on flight recording: while no real tracer is active,
        # the recorder's bounded ring captures this request's spans.
        # A caller-installed tracer (analyze/trace paths) wins; the
        # ambient tracer is restored either way, so nothing leaks.
        ambient = None
        if telemetry is not None and not get_tracer().enabled:
            ambient = set_tracer(telemetry.recorder)
        try:
            response = self._execute(request, tenant, op, request_id,
                                     arrival)
        finally:
            if ambient is not None:
                set_tracer(ambient)
        status = response["status"]
        latency = response.get("latency", 0.0)
        wait = response.get("wait", 0.0)
        self.report.record(tenant, status, latency, wait, slo=slo)
        METRICS.counter("serve.requests").inc()
        METRICS.counter(f"serve.status.{status}").inc()
        if status == STATUS_OK:
            METRICS.histogram("serve.latency").observe(latency)
        if telemetry is not None:
            now = self._platform.clock
            telemetry.observe_request(tenant, now, status, latency,
                                      slo=slo)
            error = response.get("error")
            if error == "breaker-open":
                telemetry.trigger("breaker.open", now, tenant=tenant,
                                  request=request_id)
            elif error in ("partition", "incomplete") \
                    or status == STATUS_PARTIAL:
                telemetry.trigger("partition.detected", now,
                                  tenant=tenant, request=request_id,
                                  scopes=",".join(
                                      response.get("scopes", [])))
        return response

    def metrics_exposition(self) -> str:
        """The Prometheus text-format document ``GET /metrics`` serves.

        Reads only bounded state (registry metric objects plus the
        telemetry plane's rings), so cost is independent of how many
        requests the service has handled.
        """
        return render_prometheus(telemetry=self.telemetry,
                                 at=self._platform.clock)

    async def handle_async(self, request: Mapping[str, Any],
                           arrival: Optional[float] = None,
                           ) -> Dict[str, Any]:
        """Asyncio entry point: serialises callers onto the platform.

        ``asyncio.Lock`` wakes waiters FIFO, so concurrent submissions
        execute in submission order -- the deterministic-replay
        property the loadgen tests pin.
        """
        if self._lock is None:
            self._lock = asyncio.Lock()
        async with self._lock:
            return self.handle(request, arrival=arrival)

    def _execute(self, request: Mapping[str, Any], tenant: str, op: str,
                 request_id: str, arrival: float) -> Dict[str, Any]:
        response = self._execute_inner(request, tenant, op, request_id,
                                       arrival)
        tracer = get_tracer()
        if tracer.enabled:
            # The request span cannot carry the status (only known at
            # end); the response instant completes the picture for
            # ``repro.obs.analyze.serve`` -- and fires for fail-fast
            # rejections that never open a span.
            completeness = response.get("completeness") or {}
            tracer.instant(
                "serve.response", self._platform.clock, layer="serve",
                tenant=tenant, op=op, request=request_id,
                status=response["status"],
                latency=response.get("latency", 0.0),
                hedges=response.get("hedges", 0),
                completeness=completeness.get("fraction", 1.0),
            )
        return response

    def _execute_inner(self, request: Mapping[str, Any], tenant: str,
                       op: str, request_id: str,
                       arrival: float) -> Dict[str, Any]:
        base = {"id": request_id, "tenant": tenant, "op": op}
        if op not in (OP_QUERY, OP_MLGRAD):
            return {**base, "status": STATUS_NOT_FOUND,
                    "error": "unknown-op",
                    "reason": f"op must be one of {OP_QUERY!r}, "
                              f"{OP_MLGRAD!r}"}
        start = self._platform.begin_request(arrival)
        wait = start - arrival
        base["wait"] = wait
        limit = self.config.max_queue_wait
        if limit is not None and wait > limit:
            return {**base, "status": STATUS_UNAVAILABLE,
                    "error": "overloaded",
                    "reason": f"queued {wait:.3f}s > {limit:g}s"}
        if self._breakers_refusing(start):
            return {**base, "status": STATUS_UNAVAILABLE,
                    "error": "breaker-open",
                    "reason": "all agg-box circuit breakers are open"}
        tracer = get_tracer()
        span = tracer.begin(
            "serve.request", start, layer="serve", tenant=tenant, op=op,
            request=request_id, arrival=arrival, wait=wait,
        ) if tracer.enabled else 0
        try:
            response = self._dispatch(request, base, op, tenant,
                                      request_id, arrival)
        finally:
            if span:
                tracer.end(span, self._platform.clock)
        return response

    def _dispatch(self, request: Mapping[str, Any], base: Dict[str, Any],
                  op: str, tenant: str, request_id: str,
                  arrival: float) -> Dict[str, Any]:
        try:
            master, workers = self._endpoints(request)
            _check_synthesis(request, op, len(workers))
            if op == OP_QUERY:
                outcome = self._platform.execute_request(
                    APP_QUERY, request_id, master,
                    self._query_partials(request, workers), tenant=tenant)
                value = _encode_results(outcome.value)
            else:
                outcome = self._platform.execute_request(
                    APP_MLGRAD, request_id, master,
                    self._mlgrad_partials(request, workers), tenant=tenant)
                value = list(outcome.value)
        except AdmissionNack as nack:
            policy = self.config.policy_for(tenant)
            return {**base, "status": STATUS_REJECTED,
                    "error": "admission-nack", "reason": nack.reason,
                    "retry_after": 1.0 / policy.rate}
        except SubtreeUnreachable as exc:
            # Before RuntimeError: a partition is unavailability, not
            # an internal error -- the fail-stop (no-policy) arm and
            # the nothing-reachable case both land here.
            return {**base, "status": STATUS_UNAVAILABLE,
                    "error": "partition", "reason": str(exc),
                    "missing_workers": list(exc.missing_workers),
                    "scopes": list(exc.scopes)}
        except (ValueError, KeyError, TypeError) as exc:
            return {**base, "status": STATUS_BAD_REQUEST,
                    "error": "bad-request", "reason": str(exc)}
        except RuntimeError as exc:
            return {**base, "status": STATUS_INTERNAL,
                    "error": "internal", "reason": str(exc)}
        latency = self._platform.clock - arrival
        response = {**base, "status": STATUS_OK, "value": value,
                    "latency": latency,
                    "boxes": len(set(outcome.boxes_used)),
                    "retries": len(outcome.events_of_kind("retry"))}
        hedges = len(outcome.events_of_kind("hedge"))
        if hedges:
            response["hedges"] = hedges
        completeness = outcome.completeness
        if completeness is not None and not completeness.exact:
            if completeness.fraction < MIN_COMPLETENESS:
                return {**base, "status": STATUS_UNAVAILABLE,
                        "error": "incomplete",
                        "reason": (
                            f"completeness {completeness.fraction:.2f} "
                            f"below tenant floor {MIN_COMPLETENESS:g}"),
                        "completeness": completeness.to_dict()}
            response["status"] = STATUS_PARTIAL
            response["completeness"] = completeness.to_dict()
        return response

    def _breakers_refusing(self, now: float) -> bool:
        """True when every deployed box's breaker refuses sends.

        ``allow`` also performs the open -> half-open transition, so a
        503 storm self-heals after the breaker reset timeout.
        """
        board = self._platform.breakers
        if not self._box_ids:
            return False
        states = board.states()
        if not all(box in states for box in self._box_ids):
            return False
        return not any(board.breaker(box).allow(now)
                       for box in self._box_ids)


def _encode_results(results: List[SearchResult]) -> List[List[float]]:
    """Search results as JSON-ready ``[doc_id, score]`` pairs."""
    return [[r.doc_id, r.score] for r in results]


def _gradient(offset: int, dims: int) -> Vector:
    """``((offset + 7*j) % 1999 - 999) / 999.0`` for ``j < dims``."""
    start = offset % 1999 * _INVERSE_OF_7 % 1999
    vector = _GRAD_CYCLE[start:start + max(dims, 0)]
    while len(vector) < dims:
        vector += _GRAD_CYCLE[:dims - len(vector)]
    return vector


def _check_synthesis(request: Mapping[str, Any], op: str,
                     workers: int) -> None:
    """Refuse a seed-synthesised payload with a negative size or more
    than :data:`MAX_SYNTHESISED_VALUES` values (a ``ValueError``, so a
    400); an explicit payload is the frame limit's to bound."""
    explicit, name, default = (
        ("results", "results_per_worker", 4) if op == OP_QUERY
        else ("gradients", "gradient_dims", 8))
    if explicit in request:
        return
    size = int(request.get(name, default))
    if size < 0:
        raise ValueError(f"{name!r} must be >= 0, got {size}")
    if workers * size > MAX_SYNTHESISED_VALUES:
        raise ValueError(
            f"{workers} workers x {name!r} {size} = {workers * size} "
            f"synthesised values, more than {MAX_SYNTHESISED_VALUES}")
