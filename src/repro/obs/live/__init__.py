"""``repro.obs.live`` -- the streaming telemetry plane.

Where :mod:`repro.obs.analyze` digests a finished trace, this package
watches a *running* system.  It layers four pieces on the existing
``MetricsRegistry`` / ``Tracer`` seams:

- :mod:`~repro.obs.live.series`: per-series ring buffers over virtual
  time with tumbling/sliding windows, counter rates, and the shared
  :func:`~repro.obs.live.series.ewma_step` smoothing primitive -- the
  one sanctioned home for windowing math (``tools/check_obs.py`` lints
  reimplementations elsewhere);
- :mod:`~repro.obs.live.slo`: multi-window burn-rate alerting over
  good/bad event streams (fast 5x-budget + slow 1x-budget windows);
- :mod:`~repro.obs.live.recorder`: the always-on, bounded
  :class:`FlightRecorder` that dumps a validator-clean Perfetto trace
  of the moments *before* an anomaly;
- :mod:`~repro.obs.live.exposition`: Prometheus text-format rendering
  for ``GET /metrics``.

:class:`LiveTelemetry` bundles them into the object the serving layer
owns: every handled request flows through :meth:`LiveTelemetry
.observe_request`, which updates the windowed series, folds the
request into its tenant's SLO stream, evaluates burn rates, and -- on
an alert's rising edge -- tags and dumps the flight recorder.
Breaker-open and partition events reach the same recorder through
:meth:`LiveTelemetry.trigger` (see ARCHITECTURE.md, "Live telemetry").
"""

from __future__ import annotations

import pathlib
import re
from typing import Dict, List, Optional

from repro import _lazy_exports
from repro.obs.live.exposition import sample_line
from repro.obs.live.recorder import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.live.series import DEFAULT_MAXLEN, TimeSeriesStore
from repro.obs.live.slo import (
    GOOD_PREFIX,
    BurnRateAlert,
    SloMonitor,
    SloObjective,
)

#: Series-name prefixes the serving layer records under.
LATENCY_PREFIX = "serve.latency:"
REQUEST_PREFIX = "serve.requests:"

#: Statuses that are the *caller's* fault -- excluded from SLO streams
#: (a tenant over its own rate limit is not a service regression).
CLIENT_FAULT_STATUSES = frozenset({400, 404, 405, 413, 429})

#: Statuses counting as good SLO events (degraded 206 answers count:
#: partial delivery inside the completeness contract is the promised
#: behaviour, not a violation -- lateness still makes them bad).
GOOD_STATUSES = frozenset({200, 206})


class LiveTelemetry:
    """The per-service live telemetry plane (see module docstring)."""

    def __init__(self,
                 template: Optional[SloObjective] = None,
                 maxlen: int = DEFAULT_MAXLEN,
                 recorder_capacity: int = DEFAULT_CAPACITY,
                 window: float = 5.0,
                 dump_dir: Optional[str] = None,
                 dump_min_interval: float = 1.0) -> None:
        self.store = TimeSeriesStore(maxlen=maxlen)
        self.monitor = SloMonitor(store=self.store, template=template)
        self.recorder = FlightRecorder(capacity=recorder_capacity,
                                       min_interval=dump_min_interval)
        #: Window (virtual seconds) for dashboard/exposition stats.
        self.window = window
        self.dump_dir = dump_dir
        self.now = 0.0  #: latest virtual time observed

    # -- recording ---------------------------------------------------------

    def observe_request(self, tenant: str, at: float, status: int,
                        latency: float,
                        slo: Optional[float] = None
                        ) -> List[BurnRateAlert]:
        """Fold one handled request into the plane; returns new alerts.

        ``slo`` is the tenant's latency objective (seconds); a request
        is a *good* SLO event when it succeeded (200/206) within that
        objective.  Client-fault statuses (4xx) do not count against
        the SLO at all.
        """
        self.now = max(self.now, at)
        self.store.observe(LATENCY_PREFIX + tenant, at, latency)
        self.store.count(REQUEST_PREFIX + tenant, at)
        if status not in CLIENT_FAULT_STATUSES:
            good = status in GOOD_STATUSES and \
                (slo is None or latency <= slo)
            self.monitor.record(tenant, at, good)
        fired = self.monitor.evaluate(at)
        for alert in fired:
            self._on_alert(alert)
        return fired

    def trigger(self, kind: str, at: float, **tags: object
                ) -> Optional[dict]:
        """An anomaly outside the SLO path (breaker open, partition):
        mark it in the ring and dump the flight recorder."""
        self.now = max(self.now, at)
        self.recorder.instant(kind, at, layer="serve", **tags)
        return self._dump(kind, at, **tags)

    def _on_alert(self, alert: BurnRateAlert) -> None:
        tags = alert.tags()
        self.recorder.instant("slo.burn_alert", alert.at,
                              layer="serve", **tags)
        self._dump(f"slo_burn:{alert.key}", alert.at, **tags)

    def _dump(self, kind: str, at: float,
              **tags: object) -> Optional[dict]:
        path = None
        if self.dump_dir is not None:
            safe = re.sub(r"[^A-Za-z0-9_.-]", "_", kind)
            path = (pathlib.Path(self.dump_dir)
                    / f"flightrec-{safe}-{at:.6f}.json")
        return self.recorder.dump(kind, at, path=path, **tags)

    # -- consumption -------------------------------------------------------

    def tenants(self) -> List[str]:
        """Tenant keys with any recorded traffic, sorted."""
        n = len(LATENCY_PREFIX)
        return [name[n:] for name in self.store.names(LATENCY_PREFIX)]

    def windowed(self, tenant: str,
                 at: Optional[float] = None) -> Dict[str, float]:
        """Live windowed stats for one tenant (dashboard / stats row)."""
        at = self.now if at is None else at
        obj = self.monitor.objective(tenant)
        stats = self.store.window(LATENCY_PREFIX + tenant, at,
                                  self.window)
        return {
            "window_s": self.window,
            "count": stats.count,
            "p50": stats.p50,
            "p99": stats.p99,
            "mean": stats.mean,
            "rate_rps": self.store.rate(REQUEST_PREFIX + tenant, at,
                                        self.window),
            "goodput_rps": self.store.rate(GOOD_PREFIX + tenant, at,
                                           self.window),
            "burn_fast": self.monitor.burn_rate(tenant, at,
                                                obj.fast_window),
            "burn_slow": self.monitor.burn_rate(tenant, at,
                                                obj.slow_window),
            "burning": 1.0 if self.monitor.is_burning(tenant) else 0.0,
        }

    def exposition_lines(self, at: Optional[float] = None) -> List[str]:
        """Windowed per-tenant samples in Prometheus text format."""
        at = self.now if at is None else at
        tenants = self.tenants()
        rows = [(t, self.windowed(t, at)) for t in tenants]
        lines: List[str] = []

        def family(name: str, field: str) -> None:
            lines.append(f"# TYPE {name} gauge")
            for tenant, row in rows:
                lines.append(sample_line(name, row[field],
                                         {"key": tenant}))

        if rows:
            family("repro_window_p50_seconds", "p50")
            family("repro_window_p99_seconds", "p99")
            family("repro_window_request_rate", "rate_rps")
            family("repro_window_goodput_rate", "goodput_rps")
            lines.append("# TYPE repro_slo_burn_rate gauge")
            for tenant, row in rows:
                for win in ("fast", "slow"):
                    lines.append(sample_line(
                        "repro_slo_burn_rate", row[f"burn_{win}"],
                        {"key": tenant, "window": win}))
            family("repro_slo_burning", "burning")
        return lines


__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.obs.live.exposition": [
        "render_prometheus", "render_registry", "sample_line",
        "validate_exposition",
    ],
    "repro.obs.live.recorder": ["DEFAULT_CAPACITY", "FlightRecorder"],
    "repro.obs.live.series": [
        "COUNTER", "DEFAULT_MAXLEN", "GAUGE", "TimeSeriesStore",
        "WindowStats", "WindowedSeries", "ewma_step",
    ],
    "repro.obs.live.slo": [
        "BAD_PREFIX", "BurnRateAlert", "GOOD_PREFIX", "SloMonitor",
        "SloObjective",
    ],
})
__all__ += ["CLIENT_FAULT_STATUSES", "GOOD_STATUSES", "LATENCY_PREFIX",
            "LiveTelemetry", "REQUEST_PREFIX"]
