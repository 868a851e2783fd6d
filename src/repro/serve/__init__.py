"""``repro.serve`` -- the live multi-tenant serving layer.

Turns the scripted NetAgg reproduction into a service you can hammer:

- :class:`AggregationService` (:mod:`repro.serve.service`) -- a live
  :class:`repro.core.platform.NetAggPlatform` deployment behind a
  request/response interface with HTTP-style statuses (200 exact
  aggregate, 206 partial aggregate with a completeness record, 429
  admission NACK, 503 breaker-open / overload shed / partition);
- :mod:`repro.serve.loadgen` -- an open-loop, Zipfian-tenant load
  generator (``python -m repro loadgen``) with deterministic replay;
- :mod:`repro.serve.http` -- the asyncio HTTP/JSON front-end
  (``python -m repro serve``);
- :mod:`repro.serve.stats` -- per-tenant goodput / latency / SLO
  attainment ledgers with self-checking accounting;
- :mod:`repro.serve.watch` -- the live text dashboard
  (``python -m repro watch``) over ``/v1/stats`` + ``/metrics``.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.serve.http": ["HttpFrontend", "serve_forever"],
    "repro.serve.loadgen": [
        "LoadGenResult", "estimate_service_time", "run_loadgen",
        "tenant_policies",
    ],
    "repro.serve.service": [
        "AggregationService", "ServeConfig", "TenantPolicy",
    ],
    "repro.serve.stats": ["ServeReport", "TenantStats"],
    "repro.serve.watch": ["render_dashboard", "watch_loop"],
})
