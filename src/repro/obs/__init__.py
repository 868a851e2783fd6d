"""``repro.obs`` -- the unified observability layer.

One zero-dependency subsystem replaces the three ad-hoc telemetry
mechanisms that grew across PRs 1-3 (module-wide work counters in the
flow simulator, ``ShimEvent`` tallies in the platform, box health/queue
stats in the aggbox layer):

- :class:`Tracer` records structured spans and instant events on the
  layers' *virtual* clocks.  The default tracer is a no-op
  (:data:`NULL_TRACER`); instrumented hot paths pay a single
  ``tracer.enabled`` branch when tracing is off.  Enable it around a
  region with :func:`tracing`::

      with tracing(Tracer()) as tracer:
          run_experiment()
      write_trace(tracer, "trace.json")

- :class:`MetricsRegistry` holds named counters and histograms
  behind one ``snapshot()``.  The process-wide registry is
  :data:`METRICS`; the simulator, platform and aggbox layers all write
  into it (``netsim.*``, ``platform.*``, ``aggbox.*`` namespaces).

- :mod:`repro.obs.export` renders a tracer into Chrome/Perfetto
  ``trace_event`` JSON (``python -m repro trace fig06 --out
  trace.json``) and validates that schema.

Span taxonomy (see ARCHITECTURE.md, "Observability"): layer tags are
``netsim`` / ``platform`` / ``aggbox``; each layer maps to its own
Perfetto thread row, so one timeline correlates simulator rate epochs,
shim send->retry->breaker->NACK lifecycles and per-partial box work.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.obs.export": [
        "to_trace_events", "trace_payload", "validate_trace_events",
        "validate_trace_file", "write_trace",
    ],
    "repro.obs.live": [
        "BurnRateAlert", "FlightRecorder", "LiveTelemetry", "SloMonitor",
        "SloObjective", "TimeSeriesStore", "WindowStats", "WindowedSeries",
        "ewma_step", "render_prometheus", "validate_exposition",
    ],
    "repro.obs.metrics": [
        "METRICS", "Counter", "Histogram", "MetricsRegistry",
    ],
    "repro.obs.tracer": [
        "LINK_UTIL_PREFIX", "NULL_TRACER", "Instant", "NullTracer", "Sample",
        "Span", "Tracer", "get_tracer", "set_tracer", "tracing",
    ],
})
