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

- :class:`MetricsRegistry` holds named counters, gauges and histograms
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

from __future__ import annotations

from repro.obs.export import (
    to_trace_events,
    trace_payload,
    validate_trace_events,
    validate_trace_file,
    write_trace,
)
from repro.obs.live import (
    BurnRateAlert,
    FlightRecorder,
    LiveTelemetry,
    SloMonitor,
    SloObjective,
    TimeSeriesStore,
    WindowStats,
    WindowedSeries,
    ewma_step,
    render_prometheus,
    validate_exposition,
)
from repro.obs.metrics import (
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import (
    LINK_UTIL_PREFIX,
    NULL_TRACER,
    Instant,
    NullTracer,
    Sample,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "BurnRateAlert",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "Instant",
    "LINK_UTIL_PREFIX",
    "LiveTelemetry",
    "METRICS",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Sample",
    "SloMonitor",
    "SloObjective",
    "Span",
    "TimeSeriesStore",
    "Tracer",
    "WindowStats",
    "WindowedSeries",
    "ewma_step",
    "get_tracer",
    "render_prometheus",
    "set_tracer",
    "to_trace_events",
    "trace_payload",
    "tracing",
    "validate_exposition",
    "validate_trace_events",
    "validate_trace_file",
    "write_trace",
]
