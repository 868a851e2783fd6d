"""Tests for the unified observability layer (repro.obs).

Covers the tracer's structural invariants (strict-LIFO nesting,
well-formed parentage -- including property-based checks over random
begin/end programs), registry semantics, the trace_event exporter, the
CLI ``trace`` command (spans from all three layers), and -- the purity
contract -- that a disabled tracer leaves experiment output
byte-identical.
"""

import json
import math
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.aggbox.functions import SearchResult
from repro.obs import (
    METRICS,
    MetricsRegistry,
    NULL_TRACER,
    Tracer,
    get_tracer,
    set_tracer,
    to_trace_events,
    tracing,
    validate_trace_events,
    validate_trace_file,
    write_trace,
)
from tests.nets import network_of
from tests.test_live import record_count


class TestTracerSpans:
    def test_parentage_from_nesting(self):
        t = Tracer()
        outer = t.begin("outer", 0.0, layer="netsim")
        inner = t.begin("inner", 1.0, layer="netsim")
        t.end(inner, 2.0)
        t.end(outer, 3.0)
        spans = {s.span_id: s for s in t.spans}
        assert spans[outer].parent_id is None
        assert spans[inner].parent_id == outer
        assert spans[inner].end - spans[inner].start == 1.0
        assert not t._stack

    def test_unbalanced_end_rejected(self):
        t = Tracer()
        outer = t.begin("outer", 0.0)
        t.begin("inner", 1.0)
        with pytest.raises(RuntimeError, match="unbalanced"):
            t.end(outer, 2.0)

    def test_end_without_begin_rejected(self):
        with pytest.raises(RuntimeError):
            Tracer().end(1, 0.0)

    def test_end_before_start_rejected(self):
        t = Tracer()
        sid = t.begin("s", 5.0)
        with pytest.raises(ValueError):
            t.end(sid, 4.0)

    def test_layers_sorted_distinct(self):
        t = Tracer()
        sid = t.begin("a", 0.0, layer="platform")
        t.end(sid, 1.0)
        t.instant("x", 0.5, layer="aggbox")
        t.sample("y", 0.5, 1.0, layer="netsim")
        assert t.layers() == ["aggbox", "netsim", "platform"]

    @given(st.lists(st.tuples(st.booleans(),
                              st.floats(0, 100, allow_nan=False)),
                    max_size=60))
    def test_random_programs_keep_nesting_well_formed(self, program):
        """Any legal begin/end interleaving yields a well-formed tree:
        children nest inside parents, ids are unique, LIFO holds."""
        t = Tracer()
        clock = 0.0
        for is_begin, dt in program:
            clock += dt
            if is_begin:
                t.begin(f"s{t._next_id}", clock)
            elif t._stack:
                t.end(t._stack[-1].span_id, clock)
        while t._stack:
            clock += 1.0
            t.end(t._stack[-1].span_id, clock)
        spans = {s.span_id: s for s in t.spans}
        assert len(spans) == len(t.spans)  # ids unique
        for s in t.spans:
            assert s.end is not None and s.end >= s.start
            if s.parent_id is not None:
                parent = spans[s.parent_id]
                assert parent.start <= s.start
                assert parent.end >= s.end


class TestNullTracer:
    def test_disabled_and_inert(self):
        before = (len(NULL_TRACER.spans), len(NULL_TRACER.instants),
                  len(NULL_TRACER.samples))
        assert not NULL_TRACER.enabled
        sid = NULL_TRACER.begin("x", 0.0)
        NULL_TRACER.end(sid, 1.0)
        NULL_TRACER.instant("i", 0.0)
        NULL_TRACER.sample("c", 0.0, 1.0)
        after = (len(NULL_TRACER.spans), len(NULL_TRACER.instants),
                 len(NULL_TRACER.samples))
        assert before == after == (0, 0, 0)

    def test_default_active_tracer_is_null(self):
        assert get_tracer() is NULL_TRACER

    def test_tracing_restores_previous(self):
        t = Tracer()
        with tracing(t) as active:
            assert active is t
            assert get_tracer() is t
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_returns_previous(self):
        prev = set_tracer(Tracer())
        try:
            assert prev is NULL_TRACER
        finally:
            set_tracer(prev)


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b")
        c.inc()
        c.inc(2)
        assert reg.counter("a.b") is c
        assert reg.counter("a.b").value == 3

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_histogram_streams(self):
        reg = MetricsRegistry()
        h = reg.histogram("depth")
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        snap = reg.snapshot()
        assert snap["depth.count"] == 3
        assert snap["depth.min"] == 1.0
        assert snap["depth.max"] == 3.0
        assert snap["depth.mean"] == pytest.approx(2.0)

    def test_empty_histogram_omits_min_max(self):
        reg = MetricsRegistry()
        reg.histogram("empty")
        snap = reg.snapshot()
        assert "empty.min" not in snap and "empty.max" not in snap
        assert snap["empty.count"] == 0

    def test_reset_keeps_identity(self):
        reg = MetricsRegistry()
        c = reg.counter("n.events")
        c.inc(5)
        reg.reset("n.")
        assert reg.counter("n.events") is c
        assert c.value == 0

    def test_reset_respects_prefix(self):
        reg = MetricsRegistry()
        reg.counter("a.x").inc()
        reg.counter("b.x").inc()
        reg.reset("a.")
        assert reg.counter("a.x").value == 0
        assert reg.counter("b.x").value == 1

    def test_snapshot_prefix_filters(self):
        reg = MetricsRegistry()
        reg.counter("a.x").inc()
        reg.counter("b.y").inc(2)
        assert reg.snapshot("b.") == {"b.y": 2}

    def test_counters_view_is_counters_only_in_name_order(self):
        reg = MetricsRegistry()
        reg.counter("b.x").inc(2)
        reg.histogram("a.z").observe(1.0)
        reg.counter("a.x")
        assert list(reg.counters().items()) == [("a.x", 0), ("b.x", 2)]


class TestExporter:
    def _tracer(self):
        t = Tracer()
        outer = t.begin("run", 0.0, layer="netsim", flows=2)
        t.instant("retry", 0.5, layer="platform", attempt=1)
        t.sample("active", 0.25, 2.0, layer="netsim")
        t.end(outer, 1.0)
        return t

    def test_events_validate(self):
        events = to_trace_events(self._tracer())
        assert validate_trace_events(events) == []

    def test_timestamps_scaled_to_us(self):
        events = to_trace_events(self._tracer())
        span = next(e for e in events if e["ph"] == "X")
        assert span["ts"] == 0.0 and span["dur"] == 1e6
        assert span["cat"] == "netsim"
        assert span["args"]["flows"] == 2

    def test_layers_map_to_threads(self):
        events = to_trace_events(self._tracer())
        names = {e["args"]["name"]: e["tid"]
                 for e in events if e["ph"] == "M"}
        assert names["netsim"] == 1 and names["platform"] == 2

    def test_open_span_padded_to_horizon(self):
        t = Tracer()
        t.begin("open", 0.0, layer="netsim")
        t.instant("later", 4.0, layer="netsim")
        events = to_trace_events(t)
        span = next(e for e in events if e["ph"] == "X")
        assert span["dur"] == 4.0 * 1e6
        # Exporting must not close the tracer's copy of the span.
        assert t._stack

    def test_exotic_tags_reprd(self):
        t = Tracer()
        sid = t.begin("s", 0.0, layer="netsim", obj={"k": 1})
        t.end(sid, 1.0)
        events = to_trace_events(t)
        span = next(e for e in events if e["ph"] == "X")
        assert span["args"]["obj"] == repr({"k": 1})

    def test_write_and_validate_file(self, tmp_path):
        path = tmp_path / "t.json"
        write_trace(self._tracer(), path, metrics={"a.b": 1})
        payload = validate_trace_file(path)
        assert payload["metrics"] == {"a.b": 1}
        assert payload["displayTimeUnit"] == "ms"

    def test_validate_rejects_garbage(self):
        assert validate_trace_events([{"ph": "Z"}])
        assert validate_trace_events("nope")
        assert validate_trace_events([{"ph": "X", "name": "s",
                                      "pid": 1, "tid": 1,
                                      "ts": -1, "dur": 0}])

    def test_require_layers_enforced(self, tmp_path):
        path = tmp_path / "t.json"
        write_trace(self._tracer(), path)
        with pytest.raises(ValueError, match="aggbox"):
            validate_trace_file(path, require_layers=["aggbox"])


class TestInstrumentation:
    def test_simulator_emits_netsim_spans(self):
        from repro.netsim.network import Link
        from repro.netsim.simulator import FlowSim, FlowSpec

        with tracing(Tracer()) as t:
            sim = FlowSim(network_of([Link("l", 10.0)]))
            sim.add_flow(FlowSpec("f", size=10.0, path=("l",)))
            sim.run()
        assert not t._stack
        names = {s.name for s in t.spans}
        assert "flowsim.run" in names and "epoch" in names
        assert all(s.layer.startswith("netsim") for s in t.spans)
        flows = [s for s in t.spans if s.name == "flow"]
        assert len(flows) == 1 and flows[0].layer == "netsim.flow"
        assert flows[0].tags["flow"] == "f"
        assert any(i.name == "link.traffic" for i in t.instants)

    def test_simulator_counts_land_in_the_registry(self):
        from repro.netsim.network import Link
        from repro.netsim.simulator import FlowSim, FlowSpec

        METRICS.reset("netsim.")
        sim = FlowSim(network_of([Link("l", 10.0)]))
        sim.add_flow(FlowSpec("f", size=10.0, path=("l",)))
        sim.run()
        snap = METRICS.snapshot("netsim.")
        assert snap["netsim.runs"] == 1
        assert snap["netsim.flows"] == 1
        assert snap["netsim.events"] == 2  # one admission, one completion
        assert snap["netsim.epochs"] == snap["netsim.solver.solves"] == 1

    def test_platform_and_box_layers_traced(self):
        from repro.aggregation import deploy_boxes
        from repro.aggbox.functions import SearchResult, TopKFunction
        from repro.core.platform import NetAggPlatform
        from repro.experiments.common import QUICK
        from repro.topology.threetier import three_tier
        from repro.wire.records import (
            decode_search_results,
            encode_search_results,
        )

        topo = three_tier(QUICK.topo)
        deploy_boxes(topo)
        with tracing(Tracer()) as t:
            platform = NetAggPlatform(topo)
            platform.register_app("topk", TopKFunction(k=3),
                                  encode_search_results,
                                  decode_search_results)
            hosts = sorted(topo.hosts())
            partials = [
                (h, [SearchResult(doc_id=i, score=float(i))])
                for i, h in enumerate(hosts[1:5])
            ]
            platform.execute_request("topk", "r1", hosts[0], partials)
        assert not t._stack
        assert "platform" in t.layers()
        assert "aggbox" in t.layers()
        assert any(s.name == "platform.request" for s in t.spans)
        assert any(s.name == "box.emit" for s in t.spans)


class TestRequestPathSpans:
    """The spans of one request: always closed, and a fixed set."""

    QUERY = {"op": "query", "tenant": "tenant-1", "payload_seed": 12345,
             "workers": 8, "results_per_worker": 4}

    @staticmethod
    def _service():
        from repro.serve import AggregationService, ServeConfig

        return AggregationService(ServeConfig())

    @staticmethod
    def _assert_closed(recorder, *names):
        assert not recorder._stack
        seen = {span.name for span in recorder.spans}
        assert set(names) <= seen
        for span in recorder.spans:
            assert span.end is not None and span.end >= span.start, span

    def test_a_merge_that_raises_closes_its_spans(self):
        """Dies inside ``_fold``: under ``box.emit``, itself under a
        ``platform.deliver``."""
        service = self._service()
        rows = [[1.0] * 4] * 7 + [[1.0] * 3]
        response = service.handle({"op": "mlgrad", "id": "ragged",
                                   "payload_seed": 0, "gradients": rows})
        assert response["status"] == 400
        assert "gradient length mismatch" in response["reason"]
        self._assert_closed(service.telemetry.recorder, "box.emit",
                            "platform.deliver", "platform.request",
                            "serve.request")

    def test_a_chunk_that_raises_closes_its_span(self):
        """Dies inside ``_feed``, in the box's decode of a frame."""
        from repro.aggbox.functions import TopKFunction
        from repro.obs import FlightRecorder
        from repro.wire.records import encode_search_results

        def refuse(buffer):
            raise ValueError("refused frame")

        platform = self._service().platform
        platform.register_app("refusing", TopKFunction(k=3),
                              encode_search_results, refuse)
        hosts = sorted(platform.topology.hosts())
        with tracing(FlightRecorder()) as recorder:
            with pytest.raises(ValueError, match="refused frame"):
                platform.execute_request(
                    "refusing", "r", hosts[0],
                    [(host, [SearchResult(1, 0.5)]) for host in hosts[1:5]])
        self._assert_closed(recorder, "platform.deliver",
                            "platform.request")
        assert "box.emit" not in {span.name for span in recorder.spans}

    @staticmethod
    def _records_of(service, request):
        """``(record count, spans, instants)`` one request leaves."""
        recorder = service.telemetry.recorder
        before = record_count(recorder)
        spans, instants = len(recorder.spans), len(recorder.instants)
        assert service.handle(request)["status"] == 200
        return (record_count(recorder) - before,
                list(recorder.spans)[spans:],
                list(recorder.instants)[instants:])

    #: One request's records: 14 hops (8 worker partials, 6 box
    #: emissions travelling up), each one ``platform.deliver`` span --
    #: 31 records.  It was 45 while each hop also left a ``box.partial``
    #: instant repeating its delivery span.
    REQUEST_RECORDS = 31
    REQUEST_SPANS = {"platform.deliver": 14, "box.emit": 7,
                     "platform.probe": 7, "platform.request": 1,
                     "serve.request": 1}

    def test_one_query_records_a_fixed_set(self):
        """A record added to (or dropped from) the request path shows
        up here as a diff, not as a slower benchmark."""
        from collections import Counter

        service = self._service()
        service.handle({"id": "warm", **self.QUERY})
        count, spans, instants = self._records_of(
            service, {"id": "q", **self.QUERY})
        assert count == self.REQUEST_RECORDS
        assert Counter(s.name for s in spans) == self.REQUEST_SPANS
        assert Counter(i.name for i in instants) == {"serve.response": 1}
        assert not service.telemetry.recorder.samples

    def test_one_gradient_round_records_the_same_set(self):
        """The ``serve_bulk`` path: 1,024-dim rounds travel in six TCP
        segments a hop, and still leave one record per hop."""
        from collections import Counter

        service = self._service()
        round_ = {"op": "mlgrad", "tenant": "tenant-1", "payload_seed": 7,
                  "workers": 8, "gradient_dims": 1024}
        service.handle({"id": "warm", **round_})
        count, spans, instants = self._records_of(
            service, {"id": "g", **round_})
        assert count == self.REQUEST_RECORDS
        assert Counter(s.name for s in spans) == self.REQUEST_SPANS
        assert Counter(i.name for i in instants) == {"serve.response": 1}

    def test_a_delivery_span_carries_the_hop(self):
        """What the ``box.partial`` instant said lives on the delivery
        span: the app, the per-tree key the box knows the request by,
        and how many partials the box holds once this one is in -- the
        fan-in exactly when the delivery makes the box emit."""
        service = self._service()
        _, spans, _ = self._records_of(service, {"id": "q", **self.QUERY})
        delivers = [s for s in spans if s.name == "platform.deliver"]
        held: dict = {}
        for span in delivers:
            tags = span.tags
            assert set(tags) == {"box", "source", "bytes", "request",
                                 "app", "key", "pending"}
            assert (tags["request"], tags["app"], tags["key"]) \
                == ("q", "serve-solr", "q@t0")
            held[tags["box"]] = held.get(tags["box"], 0) + 1
            assert tags["pending"] == held[tags["box"]]
            emits = [e for e in spans if e.name == "box.emit"
                     and e.parent_id == span.span_id]
            for emit in emits:
                assert emit.tags["box"] == tags["box"]
                assert emit.tags["partials"] == tags["pending"]
        # Every aggregation ran inside the delivery that completed it.
        assert sum(1 for s in spans if s.name == "box.emit"
                   and s.parent_id in {d.span_id for d in delivers}) == 7

    def test_a_disabled_tracer_is_never_called(self):
        """Off means one ``enabled`` test per site: ``_feed``, ``_fold``
        and the rest of the request path call no tracer method."""
        calls = []

        class Off:
            enabled = False

            def __getattr__(self, name):
                calls.append(name)
                raise AssertionError(f"tracer.{name} used while disabled")

        platform = self._service().platform
        hosts = sorted(platform.topology.hosts())
        previous = set_tracer(Off())
        try:
            outcome = platform.execute_request(
                "serve-solr", "quiet", hosts[0],
                [(host, [SearchResult(i, float(i))])
                 for i, host in enumerate(hosts[1:9])])
        finally:
            set_tracer(previous)
        assert len(outcome.boxes_used) >= 2 and outcome.value
        assert calls == []


class TestDisabledTracerPurity:
    def test_fig06_output_identical_with_and_without_tracing(self):
        """Tracing must observe, never perturb: the result JSON of a
        traced run is byte-identical to an untraced one."""
        from repro.experiments import load
        from repro.experiments.common import QUICK

        exp = load("fig06_fct_cdf")
        plain = json.dumps(exp.run(scale=QUICK, seed=3).to_dict())
        with tracing(Tracer()):
            traced = json.dumps(exp.run(scale=QUICK, seed=3).to_dict())
        assert plain == traced

    def test_experiment_result_metrics_round_trip(self):
        from repro.experiments import ExperimentResult

        result = ExperimentResult(
            experiment="x", description="d", columns=("a",),
            metrics={"netsim.events": 7})
        result.add_row(a=1)
        again = json.loads(json.dumps(result.to_dict()))
        assert again["metrics"] == {"netsim.events": 7}
        # Empty metrics stay out of the payload (back-compat).
        bare = ExperimentResult(experiment="x", description="d",
                                columns=("a",))
        assert "metrics" not in bare.to_dict()


class TestTraceCli:
    def test_trace_experiment_covers_all_layers(self, tmp_path, capsys):
        from repro import cli

        out = tmp_path / "trace.json"
        assert cli.main(["trace", "fig06", "--scale", "quick",
                         "--out", str(out)]) == 0
        payload = validate_trace_file(
            out, require_layers=["netsim", "platform", "aggbox"])
        assert payload["metrics"]
        text = capsys.readouterr().out
        assert "spans" in text
        # The CLI run must leave the process tracer disabled.
        assert get_tracer() is NULL_TRACER

    def test_trace_generate_still_works(self, tmp_path, capsys):
        from repro import cli

        out = tmp_path / "wl.jsonl"
        assert cli.main(["trace", "generate", "--scale", "quick",
                         "--out", str(out)]) == 0
        assert out.exists()

    def test_trace_inspect_still_works(self, tmp_path, capsys):
        from repro import cli

        out = tmp_path / "wl.jsonl"
        cli.main(["trace", "generate", "--scale", "quick",
                  "--out", str(out)])
        capsys.readouterr()
        assert cli.main(["trace", "inspect", str(out)]) == 0
        assert "jobs" in capsys.readouterr().out

    def test_trace_inspect_requires_path(self):
        from repro import cli

        with pytest.raises(SystemExit):
            cli.main(["trace", "inspect"])


class TestObsLint:
    SCRIPT = (pathlib.Path(__file__).resolve().parents[1]
              / "tools" / "check_obs.py")

    def test_no_ad_hoc_telemetry_outside_obs(self):
        """tools/check_obs.py: telemetry containers only in repro.obs."""
        proc = subprocess.run([sys.executable, str(self.SCRIPT)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("source, flagged_lines", [
        ("with get_tracer().span('x', clock):\n    pass\n", [1]),
        ("def f(t):\n    with t.span('x', clock, layer='l') as s:\n"
         "        return s\n", [2]),
        ("with open(p) as f, self._tracer.span('x', c):\n    pass\n", [1]),
        ("async def f(t):\n    async with t.span('x', c):\n"
         "        pass\n", [2]),
        # The sanctioned shape, and things that only look like a span.
        ("span = t.begin('x', 0.0) if t.enabled else 0\n"
         "try:\n    pass\nfinally:\n    if span:\n"
         "        t.end(span, 1.0)\n", []),
        ("ctx = t.span('x', clock)\n", []),
        ("with rec.spans('x'):\n    pass\n", []),
        ("with span('x'):\n    pass\n", []),
        ("with t.span:\n    pass\n", []),
    ])
    def test_span_blocks_are_flagged(self, source, flagged_lines):
        import ast

        problems = self._tool()._check_span_blocks(ast.parse(source))
        assert [line for line, _ in problems] == flagged_lines
        assert all("tracer.begin" in text for _, text in problems)

    @pytest.mark.parametrize("source, flagged_lines", [
        ("def ewma(x):\n    pass\n", [1]),
        ("class EwmaTracker:\n    pass\n", [1]),
        ("self._ema: Dict[str, float] = {}\n", [1]),
        ("ema = {}\n", [1]),
        ("ema_alpha: float = 0.2\n", [1]),
        ("self._ema_alpha = alpha\n", [1]),
        # Calling the shared primitive, and names that only contain
        # the letters.
        ("mean = ewma_step(mean, x, ALPHA)\n", []),
        ("schema = {}\ntheme_alpha = 0.2\nemails = []\n", []),
    ])
    def test_private_smoothing_names_are_flagged(self, source,
                                                 flagged_lines):
        import ast

        problems = self._tool()._check_window_math(ast.parse(source))
        assert [line for line, _ in problems] == flagged_lines
        assert all("ewma_step" in text or "repro.obs.live" in text
                   for _, text in problems)

    def _tool(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location("check_obs",
                                                      self.SCRIPT)
        check_obs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_obs)
        return check_obs


class TestFctSummaryDegradation:
    def test_empty_error_names_the_filter(self):
        from repro.netsim.metrics import FctSummary

        with pytest.raises(ValueError, match="kinds=\\['worker'\\]"):
            FctSummary.of([], context="kinds=['worker'], "
                                      "aggregatable=any")

    def test_empty_summary_is_nan_row(self):
        from repro.netsim.metrics import FctSummary

        empty = FctSummary.empty()
        assert empty.count == 0
        assert math.isnan(empty.p99) and math.isnan(empty.mean)
