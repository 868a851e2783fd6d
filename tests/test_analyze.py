"""Tests for the trace-analysis layer (repro.obs.analyze) and the
bench regression gate.

Covers: trace loading round-trips (a reloaded export diagnoses
identically to the live tracer), critical-path attribution invariants
(fractions sum to 1), the paper's edge->core bottleneck shift between
`none` and `netagg` under the incast microbenchmark, the `analyze`
CLI, and the `bench --compare` gate (passes on itself, fails on any
counter that moved).
"""

import copy
import json

import pytest

from repro.cli import (
    SCALES,
    _optimizer_text,
    _trace_platform_companion,
    main,
    run_experiment,
)
from repro.obs import METRICS, Tracer, tracing, write_trace
from repro.obs.analyze import (
    CATEGORIES,
    TraceData,
    aggregate_paths,
    diagnose_file,
    diagnose_tracer,
    link_credit,
    link_tier,
    run_timeline,
    series_for_run,
    simulator_paths,
)
from repro.obs.analyze.timeline import LinkSeries


@pytest.fixture(scope="module")
def fig06_tracer():
    """fig06 at quick scale (plus the platform companion) traced live."""
    tracer = Tracer()
    METRICS.reset()
    with tracing(tracer):
        run_experiment("fig06_fct_cdf", SCALES["quick"], 1)
        _trace_platform_companion(SCALES["quick"], 1)
    return tracer


@pytest.fixture(scope="module")
def fig06_diagnosis(fig06_tracer):
    return diagnose_tracer(fig06_tracer)


class TestLinkTier:
    def test_edge_core_box(self):
        assert link_tier("host:12->tor:0") == "edge"
        assert link_tier("tor:2->host:16") == "edge"
        assert link_tier("tor:0->aggr:0:0") == "core"
        assert link_tier("aggr:0:0->core:1") == "core"
        assert link_tier("box:tor:0:0->tor:0") == "box"
        assert link_tier("proc:box:tor:0:0") == "box"


class TestLinkSeries:
    def test_piecewise_constant_integral(self):
        series = LinkSeries("l", [(0.0, 0.5), (2.0, 1.0)], end=4.0)
        # 0.5 over [0,2), 1.0 over [2,4): integral 1 + 2 = 3.
        assert series.integrate(0.0, 4.0) == pytest.approx(3.0)
        assert series.integrate(1.0, 3.0) == pytest.approx(0.5 + 1.0)

    def test_zero_before_first_sample(self):
        series = LinkSeries("l", [(2.0, 1.0)], end=4.0)
        assert series.integrate(0.0, 2.0) == 0.0
        assert series.integrate(0.0, 3.0) == pytest.approx(1.0)


class TestTraceRoundTrip:
    def test_export_reload_diagnoses_identically(self, fig06_tracer,
                                                 tmp_path):
        path = tmp_path / "trace.json"
        write_trace(fig06_tracer, str(path))
        assert diagnose_file(path) == diagnose_tracer(fig06_tracer)

    def test_runs_segmented_by_strategy(self, fig06_tracer):
        trace = TraceData.from_tracer(fig06_tracer)
        strategies = [run.strategy for run in trace.runs()]
        # fig06 sweeps its four strategies, each as one flowsim.run.
        assert strategies == ["rack", "binary", "chain", "netagg"]
        for run in trace.runs():
            assert run.spans, "run segment lost its spans"
            assert any(s.name == "flow" for s in run.spans)

    def test_open_span_analyses_the_same_live_and_reloaded(self, tmp_path):
        """A run still open when the trace is taken is padded to the
        latest timestamp seen -- the same one, live and from the file."""
        tracer = Tracer()
        tracer.begin("flowsim.run", 0.1, layer="netsim", strategy="netagg")
        flow = tracer.begin("flow", 0.2, layer="netsim", route=("a", "b"))
        tracer.instant("flow.rate", 0.3, layer="netsim", rate=1 / 3)
        tracer.end(flow, 0.7)
        tracer.begin("flow", 0.8, layer="netsim")  # open, like its run
        tracer.sample("link.util", 0.9 + 1e-12, 2 / 3, layer="netsim")
        path = tmp_path / "open.json"
        write_trace(tracer, str(path))
        live = TraceData.from_tracer(tracer).runs()
        assert live == TraceData.from_file(path).runs()
        (run,) = live
        assert run.span.end == 0.9 + 1e-12
        assert [s.end for s in run.spans] == [0.7, 0.9 + 1e-12]
        assert run.spans[0].tags["route"] == "('a', 'b')"
        assert (len(run.instants), len(run.samples)) == (1, 1)


class TestCriticalPath:
    def test_fractions_sum_to_one(self, fig06_diagnosis):
        runs = fig06_diagnosis["runs"]
        assert len(runs) == 4
        for run in runs:
            cp = run["critical_path"]
            assert cp["attributed_seconds"] > 0
            assert sum(cp["fractions"].values()) == pytest.approx(
                1.0, abs=1e-9)
            for per_request in cp["top"]:
                assert sum(per_request["fractions"].values()) \
                    == pytest.approx(1.0, abs=1e-9)

    def test_platform_section_attributed(self, fig06_diagnosis):
        platform = fig06_diagnosis["platform"]
        assert platform["requests"] == 1
        assert platform["attributed_seconds"] > 0
        assert sum(platform["fractions"].values()) == pytest.approx(
            1.0, abs=1e-9)

    def test_chain_covers_every_request(self, fig06_tracer):
        trace = TraceData.from_tracer(fig06_tracer)
        run = trace.runs()[0]
        paths = simulator_paths(run, series_for_run(run))
        jobs = {str(s.tags.get("job", "")) for s in run.spans
                if s.name == "flow" and s.tags.get("job")}
        assert {p.request for p in paths} == jobs
        for path in paths:
            assert path.chain, "critical path lost its blocking chain"
            assert path.total == pytest.approx(
                sum(hop["duration"] for hop in path.chain))

    def test_link_credit_matches_chain_hops(self, fig06_tracer):
        trace = TraceData.from_tracer(fig06_tracer)
        run = trace.runs()[0]
        paths = simulator_paths(run, series_for_run(run))
        credit = link_credit(paths)
        assert credit, "no links credited"
        assert sum(credit.values()) <= sum(p.total for p in paths) + 1e-9

    def test_aggregate_empty(self):
        assert aggregate_paths([]) == {}


class TestBottleneckShift:
    """The paper's story: without aggregation an incast is bound at the
    master's edge downlink; NetAgg moves the bottleneck into the core.
    """

    @pytest.fixture(scope="class")
    def shift_diagnosis(self):
        import repro.aggregation as aggregation
        from repro.experiments.common import simulate

        scale = SCALES["quick"].with_workload(min_workers=24,
                                              random_placement=True)
        tracer = Tracer()
        with tracing(tracer):
            simulate(scale, aggregation.NoAggregationStrategy(), seed=2)
            simulate(scale, aggregation.NetAggStrategy(),
                     deploy=aggregation.deploy_boxes, seed=2)
        return diagnose_tracer(tracer)

    def test_edge_to_core_shift(self, shift_diagnosis):
        by_strategy = {run["strategy"]: run
                       for run in shift_diagnosis["runs"]}
        none = by_strategy["none"]["timeline"]
        netagg = by_strategy["netagg"]["timeline"]
        assert none["dominant_tier"] == "edge"
        assert netagg["dominant_tier"] == "core"
        # The ranked table's top link moves tiers too.
        assert none["links"][0]["tier"] == "edge"
        assert netagg["links"][0]["tier"] == "core"

    def test_core_fraction_rises(self, shift_diagnosis):
        fractions = {run["strategy"]: run["critical_path"]["fractions"]
                     for run in shift_diagnosis["runs"]}
        assert fractions["netagg"]["core-link"] \
            > fractions["none"]["core-link"]
        assert fractions["none"]["edge-link"] \
            > fractions["netagg"]["edge-link"]


class TestTimeline:
    def test_table_ranked_by_credit(self, fig06_tracer):
        trace = TraceData.from_tracer(fig06_tracer)
        run = trace.runs()[0]
        paths = simulator_paths(run, series_for_run(run))
        report = run_timeline(run, credit=link_credit(paths))
        credits = [s.cp_seconds for s in report.links]
        assert credits == sorted(credits, reverse=True)
        assert report.links[0].cp_seconds > 0
        assert report.end_time > 0

    def test_tier_busy_bounded(self, fig06_diagnosis):
        for run in fig06_diagnosis["runs"]:
            for value in run["timeline"]["tier_busy"].values():
                assert 0.0 <= value <= 1.0


class TestOptimizerSection:
    """``repro analyze``'s optimizer section on a traced QUICK
    ``fig_selfheal``: the trace-derived numbers equal the
    ``optimizer.*`` counters of the same run."""

    @pytest.fixture(scope="class")
    def traced(self):
        tracer = Tracer()
        METRICS.reset()
        with tracing(tracer):
            run_experiment("fig_selfheal", SCALES["quick"], 1)
        counters = {name: METRICS.counter(f"optimizer.{name}").value
                    for name in ("ticks", "audits", "actions", "drains",
                                 "undrains")}
        return diagnose_tracer(tracer)["optimizer"], counters

    def test_report_equals_the_counters(self, traced):
        report, counters = traced
        assert counters["ticks"] > 0 and counters["drains"] > 0
        assert report["ticks"] == counters["ticks"]
        assert report["audits"] == counters["audits"]
        assert report["drains"] == counters["drains"]
        assert report["undrains"] == counters["undrains"]
        assert sum(report["actions"].values()) == counters["actions"]
        # No drain hit the guard in this run, so every action of a kind
        # was applied as one.
        assert report["actions"] == {
            kind: count for kind, count in (
                ("drain", counters["drains"]),
                ("undrain", counters["undrains"])) if count}
        assert sum(report["targets"].values()) == counters["actions"]
        assert len(report["log"]) == min(counters["actions"], 50)

    def test_text_prints_the_same_numbers(self, traced):
        report, counters = traced
        lines = _optimizer_text(report).splitlines()
        assert lines[0] == "== optimizer: self-healing actions =="
        assert lines[1] == (
            f"ticks={counters['ticks']} audits={counters['audits']} "
            f"drains={counters['drains']} "
            f"undrains={counters['undrains']}")
        assert lines[2] == "actions: " + "  ".join(
            f"{kind}={count}" for kind, count
            in sorted(report["actions"].items()))
        assert len(lines) == 3 + len(report["log"])
        first = report["log"][0]
        assert lines[3].replace(" ", "") == (
            f"t={first['at']:.3f}{first['kind']}{first['target']}"
            + first["reason"].replace(" ", ""))


class TestAnalyzeCli:
    def test_trace_file_mode(self, fig06_tracer, tmp_path, capsys):
        path = tmp_path / "trace.json"
        write_trace(fig06_tracer, str(path))
        out = tmp_path / "result.json"
        assert main(["analyze", "--trace", str(path),
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "dominant_tier" in printed
        assert "bottlenecks:" in printed
        payload = json.loads(out.read_text())
        assert payload["diagnosis"]["schema"] == 1
        rows = {row["run"]: row for row in payload["rows"]}
        assert "netagg" in rows
        assert sum(rows["netagg"][cat] for cat in CATEGORIES) \
            == pytest.approx(1.0, abs=1e-3)  # rows round to 4 places

    def test_requires_exactly_one_source(self):
        with pytest.raises(SystemExit):
            main(["analyze"])
        with pytest.raises(SystemExit):
            main(["analyze", "--trace", "x.json", "--run", "fig06"])


class TestBenchCompare:
    """The ``bench --compare`` gate: equality of work counters, no
    tolerance.  Every test builds its own ledgers; none reads the
    committed ``BENCH_netsim.json`` or needs numpy."""

    def _payload(self, **records):
        return {
            "schema": 2, "scale": "bench", "seed": 1,
            "solver_backend": "VectorizedMaxMin",
            "results": [
                {"experiment": name, "ok": True, "rows": 1,
                 "counters": counters}
                for name, counters in records.items()
            ],
        }

    def test_identical_payloads_pass(self):
        from repro.bench import compare_payloads

        payload = self._payload(a={"netsim.events": 100},
                                b={"cluster.queries": 200}, c={})
        assert compare_payloads(copy.deepcopy(payload), payload) == []

    def test_counter_growth_trips(self):
        from repro.bench import compare_payloads

        baseline = self._payload(a={"netsim.events": 100,
                                    "netsim.solver.solves": 10})
        current = self._payload(a={"netsim.events": 250,
                                   "netsim.solver.solves": 10})
        assert compare_payloads(current, baseline) == [
            "a: netsim.events moved 100 -> 250"]

    def test_counter_shrink_trips(self):
        """Less work is drift too: the ledger is refreshed, not beaten."""
        from repro.bench import compare_payloads

        baseline = self._payload(a={"netsim.events": 100})
        current = self._payload(a={"netsim.events": 99})
        assert compare_payloads(current, baseline) == [
            "a: netsim.events moved 100 -> 99"]

    def test_counter_on_one_side_only_trips(self):
        from repro.bench import compare_payloads

        baseline = self._payload(a={"netsim.events": 100})
        current = self._payload(a={"netsim.events": 100,
                                   "platform.requests": 7})
        assert compare_payloads(current, baseline) == [
            "a: platform.requests moved absent -> 7"]
        assert compare_payloads(baseline, current) == [
            "a: platform.requests moved 7 -> absent"]

    def _header_mismatch(self, key, value):
        from repro.bench import compare_payloads

        baseline = self._payload(a={"netsim.events": 100})
        current = self._payload(a={"netsim.events": 555})
        current[key] = value
        # Says which header differs, not how far the counts are apart.
        (problem,) = compare_payloads(current, baseline)
        assert problem.startswith(f"{key} mismatch")
        assert repr(value) in problem and repr(baseline[key]) in problem

    def test_scale_mismatch_trips(self):
        self._header_mismatch("scale", "quick")

    def test_backend_mismatch_trips(self):
        """``netsim.solver.*`` counts differ between the numpy and the
        stdlib-only solver, so a ledger is only good for its own."""
        self._header_mismatch("solver_backend", "IncrementalMaxMin")

    def test_seed_and_schema_mismatch_trip(self):
        self._header_mismatch("seed", 2)
        self._header_mismatch("schema", 1)

    def test_now_failing_experiment_trips(self):
        from repro.bench import compare_payloads

        baseline = self._payload(a={"netsim.events": 100})
        current = self._payload()
        current["results"] = [
            {"experiment": "a", "ok": False, "error": "RuntimeError: boom"}]
        assert compare_payloads(current, baseline) == [
            "a: failing (RuntimeError: boom)"]

    def test_missing_experiment_trips(self):
        from repro.bench import compare_payloads

        both = self._payload(a={"netsim.events": 100},
                             b={"cluster.queries": 5})
        only_a = self._payload(a={"netsim.events": 100})
        assert compare_payloads(only_a, both) == [
            "b: in the baseline, not run"]
        assert compare_payloads(both, only_a) == [
            "b: run, missing from the baseline"]
        # A --only subset compares only what it ran ...
        assert compare_payloads(only_a, both, subset=True) == []
        # ... but what it ran must be in the baseline.
        assert compare_payloads(both, only_a, subset=True) == [
            "b: run, missing from the baseline"]

    def test_cli_gate_fails_on_injected_regression(self, tmp_path, capsys):
        """`bench --compare` exits 0 against a ledger it just wrote and
        1 once any single counter in it is doctored by one, naming the
        experiment, the counter and both values."""
        ledger = tmp_path / "ledger.json"
        args = ["bench", "--scale", "quick", "--only", "fig06", "fig25"]
        assert main(args + ["--out", str(ledger)]) == 0
        before = ledger.read_bytes()
        assert main(args + ["--compare", str(ledger)]) == 0
        assert main(args[:-1] + ["--compare", str(ledger)]) == 0  # subset
        assert ledger.read_bytes() == before  # compare never writes
        capsys.readouterr()

        doctored = json.loads(before)
        counters = doctored["results"][0]["counters"]
        events = counters["netsim.events"]
        counters["netsim.events"] = events + 1
        ledger.write_text(json.dumps(doctored))
        assert main(args + ["--compare", str(ledger)]) == 1
        assert (f"fig06_fct_cdf: netsim.events moved {events + 1} -> "
                f"{events}") in capsys.readouterr().err

    def test_committed_ledger_covers_the_catalogue(self):
        """The one pin on the committed file: a row per registered
        experiment, and work counted for every row but ``tab01_loc``
        (which counts source lines and runs nothing)."""
        import pathlib

        from repro.experiments import MODULES

        ledger = json.loads(
            (pathlib.Path(__file__).resolve().parents[1]
             / "BENCH_netsim.json").read_text(encoding="utf-8"))
        rows = {r["experiment"]: r for r in ledger["results"]}
        assert list(rows) == list(MODULES)
        assert all(r["ok"] for r in rows.values())
        assert [name for name, r in rows.items()
                if not any(r["counters"].values())] == ["tab01_loc"]
