"""Tests for workload trace serialisation and the trace CLI."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.topology import ThreeTierParams, three_tier
from repro.workload import AggJob, BackgroundFlow, Workload, WorkloadParams
from repro.workload.synthetic import generate_workload
from repro.workload.traces import (
    TraceError,
    dump_workload,
    load_workload,
    parse_workload,
    save_workload,
    workload_summary,
)

SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=8
)


def sample_workload():
    return Workload(
        jobs=[
            AggJob("j0", "host:0", (("host:1", 100.0), ("host:2", 50.0)),
                   alpha=0.1, start_time=0.5, n_trees=2,
                   worker_delays=(0.0, 0.25)),
        ],
        background=[
            BackgroundFlow("bg:0", "host:3", "host:4", 999.0,
                           start_time=1.5),
        ],
    )


class TestRoundTrip:
    def test_dump_parse_roundtrip(self):
        workload = sample_workload()
        restored = parse_workload(dump_workload(workload))
        assert restored.jobs == workload.jobs
        assert restored.background == workload.background

    def test_save_load_roundtrip(self, tmp_path):
        workload = sample_workload()
        path = tmp_path / "trace.jsonl"
        save_workload(workload, path)
        restored = load_workload(path)
        assert restored.jobs == workload.jobs
        assert restored.background == workload.background

    def test_generated_workload_roundtrips(self):
        topo = three_tier(SMALL)
        workload = generate_workload(topo, WorkloadParams(n_flows=80),
                                     seed=3)
        restored = parse_workload(dump_workload(workload))
        assert restored.jobs == workload.jobs
        assert restored.background == workload.background

    def test_empty_workload(self):
        assert dump_workload(Workload()) == ""
        restored = parse_workload("")
        assert not restored.jobs and not restored.background

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, seed):
        topo = three_tier(SMALL)
        workload = generate_workload(topo, WorkloadParams(n_flows=30),
                                     seed=seed)
        restored = parse_workload(dump_workload(workload))
        assert restored.jobs == workload.jobs


class TestParsingErrors:
    def test_invalid_json(self):
        with pytest.raises(TraceError):
            parse_workload("{not json")

    def test_unknown_type(self):
        with pytest.raises(TraceError):
            parse_workload('{"type": "mystery"}')

    def test_bad_job_record(self):
        with pytest.raises(TraceError):
            parse_workload('{"type": "job", "job_id": "j"}')

    def test_bad_flow_record(self):
        with pytest.raises(TraceError):
            parse_workload('{"type": "background", "flow_id": "f"}')

    def test_comments_and_blanks_skipped(self):
        workload = parse_workload(
            "# a comment\n\n"
            '{"type": "background", "flow_id": "f", "src": "a", '
            '"dst": "b", "size": 1.0}\n'
        )
        assert len(workload.background) == 1


class TestSummary:
    def test_summary_fields(self):
        summary = workload_summary(sample_workload())
        assert summary["jobs"] == 1
        assert summary["background_flows"] == 1
        assert summary["worker_flows"] == 2
        assert summary["total_bytes"] == pytest.approx(1149.0)
        assert 0.0 < summary["aggregatable_byte_fraction"] < 1.0

    def test_empty_summary(self):
        summary = workload_summary(Workload())
        assert summary["jobs"] == 0
        assert summary["total_bytes"] == 0


class TestTraceCli:
    def test_generate_and_inspect(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert cli.main(["trace", "generate", "--scale", "quick",
                         "--seed", "5", "--out", str(out)]) == 0
        assert out.exists()
        capsys.readouterr()
        assert cli.main(["trace", "inspect", str(out)]) == 0
        text = capsys.readouterr().out
        assert "jobs" in text
        assert "aggregatable_byte_fraction" in text

    def test_generated_trace_replays_through_strategy(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        cli.main(["trace", "generate", "--scale", "quick",
                  "--out", str(out)])
        from repro.aggregation import NetAggStrategy, deploy_boxes
        from repro.experiments import QUICK
        from repro.netsim import FlowSim

        workload = load_workload(out)
        topo = three_tier(QUICK.topo)
        deploy_boxes(topo)
        sim = FlowSim(topo.network)
        sim.add_flows(NetAggStrategy().plan(workload, topo))
        result = sim.run()
        assert result.records


class TestTraceCliErrors:
    """A bad trace file ends the command with a one-line message that
    names the file (``SystemExit`` with a string: exit status 1)."""

    def test_inspect_missing_file(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["trace", "inspect", "/nonexistent/trace.jsonl"])
        assert "/nonexistent/trace.jsonl" in err.value.code
        assert "No such file or directory" in err.value.code

    def test_inspect_malformed_trace(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "mystery"}\n')
        with pytest.raises(SystemExit) as err:
            cli.main(["trace", "inspect", str(bad)])
        assert str(bad) in err.value.code
        assert "unknown record type 'mystery'" in err.value.code
