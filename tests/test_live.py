"""Tests for the live telemetry plane (``repro.obs.live``).

Pins the plane end to end -- observe -> alert -> dump:

- windowed series: ring bounds, window/tumbling/rate queries,
  monotonic-time enforcement, the shared ``ewma_step`` primitive;
- SLO monitor: exact burn-rate arithmetic, edge-triggered episodes,
  re-arming after recovery;
- flight recorder: bounded rings, debounced validator-clean Perfetto
  dumps, byte-identical dumps under identical seeds and fault
  schedules;
- exposition: ``render_prometheus`` output passes
  ``validate_exposition``; the validator rejects malformed documents;
- serving integration: a forced SLO burn fires an alert that shows up
  in ``GET /metrics`` and dumps a clean trace; ``/metrics`` and
  ``/v1/stats`` stay bounded under a 10k-request load;
- sweep interaction: live telemetry is per-process -- only
  ``netsim.*`` counters merge back, so windows never double-count.
"""

import asyncio
import json
import multiprocessing
from unittest import mock

import pytest

from repro.experiments.sweep import run_parallel
from repro.obs import METRICS
from repro.obs.export import validate_trace_events
from repro.obs.live import (
    RING_CAPACITY,
    SERIES_MAXLEN,
    FlightRecorder,
    LiveTelemetry,
    SloMonitor,
    SloObjective,
    TimeSeriesStore,
    WindowedSeries,
    ewma_step,
    render_prometheus,
    validate_exposition,
)
from repro.obs.live import recorder as recorder_module
from repro.obs.live import series as series_module
from repro.obs.metrics import Histogram
from repro.serve import AggregationService, ServeConfig, TenantPolicy
from repro.serve import service as service_module

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def record_count(recorder):
    """Records the recorder's rings hold right now."""
    return (len(recorder.spans) + len(recorder.instants)
            + len(recorder.samples))


def short_burn_windows():
    """Halve the service's burn-rate windows so 40 requests burn both."""
    return mock.patch.multiple(service_module, SLO_FAST_WINDOW=0.5,
                               SLO_SLOW_WINDOW=1.0)

#: A tight objective so a handful of bad events lights it up.
TIGHT = SloObjective(key="", target=0.9, fast_window=1.0,
                     slow_window=2.0, fast_burn=5.0, slow_burn=1.0)


class TestEwmaStep:
    def test_none_seeds_with_sample(self):
        assert ewma_step(None, 3.5, 0.2) == 3.5

    def test_converges_to_constant_stream(self):
        value = None
        for _ in range(200):
            value = ewma_step(value, 10.0, 0.3)
        assert value == pytest.approx(10.0)

    def test_single_step_arithmetic(self):
        assert ewma_step(1.0, 2.0, 0.25) == pytest.approx(1.25)


class TestWindowedSeries:
    def test_window_stats_over_in_window_points(self):
        series = WindowedSeries("lat")
        for i in range(10):
            series.observe(i * 1.0, float(i))
        stats = series.window(at=9.0, window=4.0)
        # Half-open (5.0, 9.0]: values 6..9.
        assert stats.count == 4
        assert stats.minimum == 6.0 and stats.maximum == 9.0
        assert stats.mean == pytest.approx(7.5)

    def test_backwards_time_rejected(self):
        series = WindowedSeries("lat")
        series.observe(1.0, 0.0)
        with pytest.raises(ValueError, match="precedes"):
            series.observe(0.5, 0.0)

    def test_ring_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(series_module, "SERIES_MAXLEN", 64)
        series = WindowedSeries("lat")
        for i in range(10_000):
            series.observe(i * 0.001, 1.0)
        assert len(series._values) <= 2 * 64

    def test_counter_delta_and_rate(self):
        series = WindowedSeries("req", kind="counter")
        for i in range(1, 11):
            series.observe(i * 1.0, float(i * 3))  # +3 per second
        assert series.delta(10.0, 4.0) == pytest.approx(12.0)
        assert series.rate(10.0, 4.0) == pytest.approx(3.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            WindowedSeries("x", kind="sparkline")


class TestTimeSeriesStore:
    def test_kind_conflict_raises(self):
        store = TimeSeriesStore()
        store.observe("x", 0.0, 1.0)
        with pytest.raises(TypeError, match="gauge"):
            store.count("x", 1.0)

    def test_same_instant_counts_fold_into_one_point(self):
        store = TimeSeriesStore()
        for _ in range(5):
            store.count("req", 1.0)
        series = store.series("req", kind="counter")
        assert len(series._values) == 1
        assert series.value_at(1.0) == 5.0

    def test_missing_series_queries_are_empty(self):
        store = TimeSeriesStore()
        assert store.window("ghost", 1.0, 1.0).count == 0
        assert store.rate("ghost", 1.0, 1.0) == 0.0
        assert store.delta("ghost", 1.0, 1.0) == 0.0


class TestSloMonitor:
    def test_burn_rate_arithmetic(self):
        monitor = SloMonitor(template=TIGHT)
        # 5 good + 5 bad in the last second: bad fraction 0.5 over a
        # 0.1 budget is a 5x burn, exactly the fast threshold.
        for i in range(5):
            monitor.record("t", 0.5 + i * 0.01, True)
            monitor.record("t", 0.6 + i * 0.01, False)
        assert monitor.burn_rate("t", 1.0, 1.0) == pytest.approx(5.0)

    def test_no_events_is_not_a_burn(self):
        monitor = SloMonitor(template=TIGHT)
        monitor.objective("t")
        assert monitor.burn_rate("t", 1.0, 1.0) == 0.0
        assert monitor.evaluate(1.0) == []

    def test_edge_triggered_episode_and_rearm(self):
        monitor = SloMonitor(template=TIGHT)
        # Sustained burn: one alert, not one per evaluation.
        for i in range(20):
            monitor.record("t", i * 0.05, False)
            monitor.evaluate(i * 0.05)
        assert len(monitor.alerts) == 1
        assert monitor.is_burning("t")
        # Recovery: both windows drain (all events age out), the
        # episode clears...
        monitor.evaluate(10.0)
        assert not monitor.is_burning("t")
        # ...and a second burn is a second episode.
        for i in range(20):
            monitor.record("t", 20.0 + i * 0.05, False)
            monitor.evaluate(20.0 + i * 0.05)
        assert len(monitor.alerts) == 2

    def test_alert_carries_windows_and_counts(self):
        monitor = SloMonitor(template=TIGHT)
        for i in range(10):
            monitor.record("t", i * 0.05, False)
        (alert,) = monitor.evaluate(0.45)
        assert alert.key == "t"
        assert alert.bad == 10 and alert.good == 0
        assert alert.budget == pytest.approx(0.1)
        assert alert.to_dict()["fast_burn"] == pytest.approx(
            alert.fast_burn)

    def test_template_substitutes_key(self):
        monitor = SloMonitor(template=TIGHT)
        obj = monitor.objective("tenant-7")
        assert obj.key == "tenant-7"
        assert obj.target == TIGHT.target

    def test_objective_validation(self):
        with pytest.raises(ValueError, match="target"):
            SloObjective(key="x", target=1.5)
        with pytest.raises(ValueError, match="fast_window"):
            SloObjective(key="x", fast_window=5.0, slow_window=1.0)


class TestHistogramPercentile:
    def test_single_observation_is_exact(self):
        hist = Histogram("h")
        hist.observe(0.123)
        assert hist.percentile(50.0) == pytest.approx(0.123)

    def test_extremes_clamp_to_min_max(self):
        hist = Histogram("h")
        for v in (0.001, 0.5, 42.0):
            hist.observe(v)
        assert hist.percentile(0.0) == pytest.approx(0.001)
        assert hist.percentile(100.0) == pytest.approx(42.0)

    def test_relative_error_within_bucket_width(self):
        hist = Histogram("h")
        values = [i * 0.001 for i in range(1, 1001)]
        for v in values:
            hist.observe(v)
        for p, exact in ((50.0, 0.5), (99.0, 0.99)):
            estimate = hist.percentile(p)
            assert abs(estimate - exact) / exact < 0.13

    def test_empty_and_reset(self):
        hist = Histogram("h")
        assert hist.percentile(99.0) == 0.0
        hist.observe(1.0)
        hist.reset()
        assert hist.count == 0
        assert hist.percentile(50.0) == 0.0


class TestFlightRecorder:
    def _fill(self, recorder, n=100, start=0.0):
        for i in range(n):
            at = start + i * 0.01
            span = recorder.begin("work", at, layer="test", index=i)
            recorder.end(span, at + 0.005)
            recorder.instant("tick", at, layer="test")

    def test_ring_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(recorder_module, "RING_CAPACITY", 32)
        recorder = FlightRecorder()
        self._fill(recorder, n=5_000)
        assert record_count(recorder) <= 3 * 32

    def test_dump_is_validator_clean_and_tagged(self):
        recorder = FlightRecorder()
        self._fill(recorder)
        payload = recorder.dump("breaker.open", 1.0, tenant="t1")
        assert payload is not None
        assert validate_trace_events(payload["traceEvents"]) == []
        assert payload["trigger"]["kind"] == "breaker.open"
        assert payload["trigger"]["tenant"] == "t1"
        assert recorder.dumps[-1][2] is payload

    def test_debounce_per_trigger_kind(self):
        recorder = FlightRecorder()
        self._fill(recorder)
        assert recorder.dump("storm", 1.0) is not None
        assert recorder.dump("storm", 1.5) is None       # inside interval
        assert recorder.dump("other", 1.5) is not None   # distinct kind
        assert recorder.dump("storm", 2.5) is not None   # re-armed

    def test_dumps_ring_is_bounded(self, monkeypatch):
        monkeypatch.setattr(recorder_module, "MIN_INTERVAL", 0.0)
        recorder = FlightRecorder()
        self._fill(recorder)
        for i in range(50):
            recorder.dump("k", float(i))
        assert len(recorder.dumps) <= 8

    def test_dump_writes_valid_file(self, tmp_path):
        recorder = FlightRecorder()
        self._fill(recorder)
        path = tmp_path / "dump.json"
        recorder.dump("alert", 1.0, path=path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert validate_trace_events(payload["traceEvents"]) == []


class TestExposition:
    def test_registry_render_validates_clean(self):
        METRICS.counter("serve.test_expo").inc(3)
        METRICS.histogram("serve.test_expo_lat").observe(0.25)
        text = render_prometheus()
        assert validate_exposition(text) == []
        assert "repro_serve_test_expo_total 3" in text
        assert 'repro_serve_test_expo_lat{quantile="0.99"}' in text

    def test_telemetry_lines_validate_clean(self):
        telemetry = LiveTelemetry(template=TIGHT)
        for i in range(20):
            telemetry.observe_request("tenant-1", i * 0.01, 200, 0.01,
                                      slo=0.25)
        text = render_prometheus(telemetry=telemetry)
        assert validate_exposition(text) == []
        assert 'repro_window_p99_seconds{key="tenant-1"}' in text
        assert 'repro_slo_burn_rate{key="tenant-1",window="fast"}' in text

    def test_validator_rejects_malformed_documents(self):
        assert validate_exposition("untyped_sample 1\n")  # no # TYPE
        bad_value = "# TYPE m gauge\nm not-a-number\n"
        assert any("bad value" in p
                   for p in validate_exposition(bad_value))
        bad_label = "# TYPE m gauge\nm{label='x'} 1\n"
        assert any("label" in p for p in validate_exposition(bad_label))
        bad_type = "# TYPE m sparkline\nm 1\n"
        assert any("unknown metric type" in p
                   for p in validate_exposition(bad_type))


def _force_burn(telemetry, tenant="t1", n=30, start=0.0):
    """Feed ``n`` SLO-violating requests; returns fired alerts."""
    fired = []
    for i in range(n):
        fired.extend(telemetry.observe_request(
            tenant, start + i * 0.01, 200, latency=1.0, slo=0.25))
    return fired


class TestLiveTelemetry:
    def test_forced_burn_fires_one_alert(self):
        telemetry = LiveTelemetry(template=TIGHT)
        fired = _force_burn(telemetry)
        assert len(fired) == 1
        assert fired[0].key == "t1"
        assert telemetry.monitor.is_burning("t1")

    def test_client_faults_do_not_count_against_slo(self):
        telemetry = LiveTelemetry(template=TIGHT)
        for i in range(30):
            telemetry.observe_request("t1", i * 0.01, 429, 1.0, slo=0.25)
        assert telemetry.monitor.alerts == []
        # The traffic still shows in the request-rate series.
        assert telemetry.windowed("t1")["count"] == 30

    def test_alert_dumps_validator_clean_trace(self):
        telemetry = LiveTelemetry(template=TIGHT)
        _force_burn(telemetry)
        payload = telemetry.recorder.dumps[-1][2]
        assert payload is not None
        assert payload["trigger"]["kind"] == "slo_burn:t1"
        assert validate_trace_events(payload["traceEvents"]) == []

    def test_alert_appears_in_exposition(self):
        telemetry = LiveTelemetry(template=TIGHT)
        _force_burn(telemetry)
        text = render_prometheus(telemetry=telemetry)
        assert validate_exposition(text) == []
        assert 'repro_slo_burning{key="t1"} 1' in text

    def test_trigger_dumps_with_kind(self, tmp_path):
        telemetry = LiveTelemetry(template=TIGHT,
                                  dump_dir=str(tmp_path))
        telemetry.recorder.instant("warm", 0.1, layer="test")
        payload = telemetry.trigger("partition.detected", 0.5,
                                    tenant="t1", scopes="rack:r0")
        assert payload["trigger"]["kind"] == "partition.detected"
        dumps = list(tmp_path.glob("flightrec-*.json"))
        assert len(dumps) == 1
        on_disk = json.loads(dumps[0].read_text(encoding="utf-8"))
        assert on_disk["trigger"]["scopes"] == "rack:r0"


def _query(tenant="t1", rid="r1", seed=42, **extra):
    return {"op": "query", "tenant": tenant, "id": rid,
            "payload_seed": seed, "workers": 2,
            "results_per_worker": 2, **extra}


class TestServeIntegration:
    def _burning_service(self):
        """An SLO no request can meet: every 200 is a bad SLO event."""
        with short_burn_windows():
            return AggregationService(ServeConfig(
                default_policy=TenantPolicy(slo=1e-9)))

    def test_forced_burn_through_the_service(self):
        service = self._burning_service()
        for i in range(40):
            service.handle(_query(rid=f"r{i}", seed=i))
        telemetry = service.telemetry
        assert len(telemetry.monitor.alerts) >= 1
        # (a) the alert is visible in /metrics...
        text = service.metrics_exposition()
        assert validate_exposition(text) == []
        assert 'repro_slo_burning{key="t1"} 1' in text
        # (b) ...and the flight recorder dumped a validator-clean
        # trace tagged with the burn.
        payload = telemetry.recorder.dumps[-1][2]
        assert payload["trigger"]["kind"].startswith("slo_burn:")
        assert validate_trace_events(payload["traceEvents"]) == []

    def test_healthy_traffic_stays_quiet(self):
        service = AggregationService()
        for i in range(40):
            service.handle(_query(rid=f"r{i}", seed=i))
        assert service.telemetry.monitor.alerts == []
        text = service.metrics_exposition()
        assert validate_exposition(text) == []
        assert 'repro_slo_burning{key="t1"} 0' in text

    def test_telemetry_off_still_serves(self):
        service = AggregationService(ServeConfig(telemetry=False))
        assert service.telemetry is None
        assert service.handle(_query())["status"] == 200
        assert validate_exposition(service.metrics_exposition()) == []

    def test_http_metrics_endpoint_is_text(self):
        from repro.serve import HttpFrontend

        frontend = HttpFrontend(AggregationService())
        status, payload = asyncio.run(
            frontend.dispatch("GET", "/metrics", b""))
        assert status == 200
        assert isinstance(payload, str)
        assert validate_exposition(payload) == []

    def test_stats_endpoint_carries_windows_and_alerts(self):
        from repro.serve import HttpFrontend

        service = self._burning_service()
        frontend = HttpFrontend(service)
        for i in range(40):
            service.handle(_query(rid=f"r{i}", seed=i))
        status, payload = asyncio.run(
            frontend.dispatch("GET", "/v1/stats", b""))
        assert status == 200
        window = payload["tenants"]["t1"]["window"]
        assert window["count"] > 0 and window["p99"] > 0
        assert payload["alerts"]["total"] >= 1
        assert payload["alerts"]["recent"][-1]["key"] == "t1"


class TestBoundedUnderLoad:
    def test_rings_and_endpoints_bounded_after_10k_requests(self):
        """The hardening pin: after 10k requests the recorder ring, the
        windowed store and both GET endpoints are the same size they
        were after 1k -- nothing grows with trace length."""
        capacity = RING_CAPACITY  # the ring is full after 1k requests
        service = AggregationService()
        telemetry = service.telemetry

        def sizes():
            store = telemetry.store
            retained = sum(len(store._series[name]._values)
                           for name in store.names())
            return (record_count(telemetry.recorder), retained,
                    len(service.metrics_exposition().splitlines()))

        for i in range(1_000):
            service.handle(_query(tenant=f"t{i % 4}", rid=f"a{i}",
                                  seed=i))
        warm = sizes()
        for i in range(9_000):
            service.handle(_query(tenant=f"t{i % 4}", rid=f"b{i}",
                                  seed=i))
        records, retained, lines = sizes()
        assert records <= 3 * capacity
        assert retained <= warm[1] + 8 * 2 * SERIES_MAXLEN
        # The exposition gained at most a few registry families (new
        # status counters), never per-request lines.
        assert lines <= warm[2] + 20
        status, payload = asyncio.run(
            __import__("repro.serve.http", fromlist=["HttpFrontend"])
            .HttpFrontend(service).dispatch("GET", "/v1/stats", b""))
        assert status == 200
        assert payload["requests"] == 10_000


class TestFlightRecorderDeterminism:
    def _dump_bytes(self):
        from repro.faults import FaultEvent, FaultSchedule

        boxes = sorted(info.box_id for info in
                       AggregationService().platform.topology.all_boxes())
        schedule = FaultSchedule([
            FaultEvent(0.005, "box-crash", boxes[0]),
            FaultEvent(0.200, "box-recover", boxes[0]),
        ])
        with short_burn_windows():
            service = AggregationService(ServeConfig(
                default_policy=TenantPolicy(slo=1e-9), faults=schedule))
        for i in range(40):
            service.handle(_query(rid=f"r{i}", seed=i))
        payload = service.telemetry.recorder.dumps[-1][2]
        assert payload is not None
        return json.dumps(payload, sort_keys=True)

    def test_same_seed_and_faults_dump_identical_bytes(self):
        assert self._dump_bytes() == self._dump_bytes()


def _live_probe(x):
    """Sweep child: bump a mergeable counter and run a private burn."""
    METRICS.counter("netsim.test_live_probe").inc()
    telemetry = LiveTelemetry(template=TIGHT)
    _force_burn(telemetry)
    return len(telemetry.monitor.alerts)


class TestSweepInteraction:
    @pytest.mark.skipif(not HAVE_FORK, reason="no fork start method")
    def test_live_telemetry_is_per_process(self):
        """What crosses the fork boundary is counter deltas -- every
        layer's, so ``obs.slo.alerts`` totals equal a serial run's --
        and nothing else: each child's windows, burn state and alert
        list live and die with its private plane, so nothing is folded
        into a parent window twice (sweep.py contract)."""
        parent = LiveTelemetry(template=TIGHT)
        netsim_before = METRICS.counter("netsim.test_live_probe").value
        alerts_before = METRICS.counter("obs.slo.alerts").value
        results = run_parallel(_live_probe, [1, 2, 3, 4], processes=2)
        assert results == [1, 1, 1, 1]
        assert METRICS.counter("netsim.test_live_probe").value \
            == netsim_before + 4
        assert METRICS.counter("obs.slo.alerts").value == alerts_before + 4
        assert parent.monitor.alerts == []
        assert parent.windowed("t1")["count"] == 0

    def test_serial_run_keeps_counter_totals(self):
        netsim_before = METRICS.counter("netsim.test_live_probe").value
        alerts_before = METRICS.counter("obs.slo.alerts").value
        results = run_parallel(_live_probe, [1, 2], processes=1)
        assert results == [1, 1]
        assert METRICS.counter("netsim.test_live_probe").value \
            == netsim_before + 2
        assert METRICS.counter("obs.slo.alerts").value == alerts_before + 2


class TestWatchDashboard:
    STATS = {
        "clock": 12.5,
        "requests": 120,
        "tenants": {
            "t1": {"requests": 100, "ok": 80, "r206": 2, "r429": 10,
                   "r503": 8,
                   "window": {"p99": 0.31, "goodput_rps": 40.0,
                              "rate_rps": 50.0, "burn_fast": 6.2,
                              "burn_slow": 1.4, "burning": 1.0}},
            "t2": {"requests": 20, "ok": 20, "r206": 0, "r429": 0,
                   "r503": 0,
                   "window": {"p99": 0.05, "goodput_rps": 10.0,
                              "rate_rps": 10.0, "burn_fast": 0.0,
                              "burn_slow": 0.0, "burning": 0.0}},
        },
        "alerts": {"total": 3, "burning": ["t1"],
                   "recent": [{"at": 11.8, "key": "t1",
                               "fast_burn": 6.2, "slow_burn": 1.4}]},
    }
    METRICS_TEXT = ("# TYPE repro_serve_requests_total counter\n"
                    "repro_serve_requests_total 120\n")

    def test_renders_tenants_alerts_and_hot_metrics(self):
        from repro.serve import render_dashboard

        board = render_dashboard(self.STATS, self.METRICS_TEXT)
        assert "clock     12.500s" in board
        t1_line = next(line for line in board.splitlines()
                       if line.startswith("t1"))
        assert "BURN" in t1_line
        t2_line = next(line for line in board.splitlines()
                       if line.startswith("t2"))
        assert t2_line.rstrip().endswith("ok")
        assert "alerts: 3 fired, burning: t1" in board
        assert "repro_serve_requests_total" in board

    def test_empty_stats_render(self):
        from repro.serve import render_dashboard

        board = render_dashboard({"clock": 0.0, "requests": 0,
                                  "tenants": {}})
        assert "(no traffic yet)" in board

    def test_hottest_tenant_ranks_first(self):
        from repro.serve.watch import _tenant_rows

        rows = _tenant_rows(self.STATS, top=10)
        assert [name for name, _ in rows] == ["t1", "t2"]


class TestFigBurnrateHelpers:
    def test_breach_time_finds_budget_exhaustion(self):
        from repro.experiments.fig_burnrate import breach_time

        events = [(i * 0.1, True) for i in range(20)]
        events += [(2.0 + i * 0.1, False) for i in range(10)]
        # After 20 good, the k-th bad makes the fraction k/(20+k);
        # k=3 is the first past a 0.1 budget -> its event time.
        assert breach_time(events, budget=0.1, warmup=20) \
            == pytest.approx(2.2)

    def test_breach_time_never_without_exhaustion(self):
        from repro.experiments.fig_burnrate import breach_time

        events = [(i * 0.1, True) for i in range(50)]
        assert breach_time(events, budget=0.1) == -1.0

    def test_first_alert_on_synthetic_streams(self):
        from repro.experiments.fig_burnrate import (
            OBJECTIVE,
            first_alert,
        )

        bad = [(i * 0.01, False) for i in range(40)]
        at, count = first_alert(bad, OBJECTIVE)
        assert at >= 0.0 and count >= 1
        good = [(i * 0.01, True) for i in range(40)]
        assert first_alert(good, OBJECTIVE) == (-1.0, 0)

    def test_quick_scale_row_shape(self):
        from repro.experiments import QUICK, load

        result = load("fig_burnrate").run(scale=QUICK, loads=(1.0,))
        (row,) = result.rows
        assert set(row) == {"load", "alerts", "alert_at", "breach_at",
                            "lead_s", "viol_frac"}
        assert row["viol_frac"] >= 0.0
