"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import cli


class TestResolve:
    def test_full_name(self):
        assert cli.resolve("fig08_output_ratio") == "fig08_output_ratio"

    def test_short_name(self):
        assert cli.resolve("fig08") == "fig08_output_ratio"
        assert cli.resolve("tab01") == "tab01_loc"

    def test_unknown_rejected(self):
        with pytest.raises(SystemExit):
            cli.resolve("fig99")

    def test_ambiguous_rejected(self):
        with pytest.raises(SystemExit):
            cli.resolve("fig1")  # fig10..fig19

    def test_registry_matches_modules(self):
        from repro import experiments

        for name in cli.EXPERIMENTS:
            exp = experiments.load(name)
            assert exp.module == name
            assert exp.summary


class TestCommands:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig08_output_ratio" in out
        assert out.count("\n") == len(cli.EXPERIMENTS)

    def test_info(self, capsys):
        assert cli.main(["info"]) == 0
        out = capsys.readouterr().out
        assert "quick" in out and "paper" in out

    def test_run_quick_experiment(self, capsys):
        assert cli.main(["run", "fig09", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "netagg" in out
        assert "median_vs_rack" in out

    def test_run_unscaled_experiment(self, capsys):
        assert cli.main(["run", "tab01"]) == 0
        out = capsys.readouterr().out
        assert "application" in out

    def test_run_writes_file(self, tmp_path, capsys):
        target = tmp_path / "out.txt"
        assert cli.main(["run", "fig09", "--scale", "quick",
                         "--out", str(target)]) == 0
        assert "fig09" in target.read_text()

    def test_run_seed_changes_workload(self, capsys):
        cli.main(["run", "fig09", "--scale", "quick", "--seed", "1"])
        first = capsys.readouterr().out
        cli.main(["run", "fig09", "--scale", "quick", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            cli.main(["run", "nonsense"])

    def test_run_writes_json(self, tmp_path, capsys):
        import json

        target = tmp_path / "results.json"
        assert cli.main(["run", "fig09", "--scale", "quick",
                         "--out", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert isinstance(payload, list) and len(payload) == 1
        assert payload[0]["experiment"] == "fig09"
        assert payload[0]["rows"]

    def test_every_experiment_has_canonical_signature(self):
        # The whole catalogue accepts run(scale=..., seed=...).
        import inspect

        from repro import experiments

        for exp in experiments.all_experiments():
            params = inspect.signature(exp.run).parameters
            assert "scale" in params, exp.module
            assert "seed" in params, exp.module


class TestBench:
    def test_bench_writes_json(self, tmp_path, capsys):
        import json

        target = tmp_path / "bench.json"
        assert cli.main(["bench", "--scale", "quick",
                         "--only", "fig09", "tab01", "fig_serve",
                         "--out", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert {key: payload[key] for key in ("schema", "scale", "seed")} \
            == {"schema": 2, "scale": "quick", "seed": 1}
        assert payload["solver_backend"] in ("VectorizedMaxMin",
                                             "IncrementalMaxMin")
        by_name = {r["experiment"]: r for r in payload["results"]}
        assert set(by_name) == {"fig09_link_traffic", "tab01_loc",
                                "fig_serve"}
        # Exactly these keys: nothing machine-dependent (seconds, RSS,
        # rates) reaches the file; the seconds go to stderr.
        assert all(set(r) == {"experiment", "ok", "rows", "counters"}
                   for r in by_name.values())
        fig09 = by_name["fig09_link_traffic"]["counters"]
        assert fig09["netsim.events"] > 0
        assert fig09["netsim.solver.solves"] > 0
        # Every layer's counters are harvested, not only netsim.*.
        assert by_name["fig_serve"]["counters"]["serve.requests"] > 0
        assert by_name["tab01_loc"]["counters"] == {}
        # Integer counters only: no gauge or histogram expansion.
        assert all(type(value) is int and value > 0
                   for r in by_name.values()
                   for value in r["counters"].values())
        err = capsys.readouterr().err
        assert "3/3 ok in " in err

    def test_bench_is_byte_reproducible(self, tmp_path):
        """Two runs write the same bytes: simulator (fork pool),
        emulator and scheduler rows alike."""
        from repro.bench import run_bench

        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for target in (first, second):
            assert run_bench(scale_name="quick", out=str(target),
                             names=["fig06", "fig22", "fig25"]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_bench_reports_failures(self, tmp_path, monkeypatch, capsys):
        import json

        from repro import bench

        def boom(name, scale, seed):
            raise RuntimeError("boom")

        monkeypatch.setattr(bench, "run_experiment", boom)
        target = tmp_path / "bench.json"
        assert bench.run_bench(scale_name="quick", out=str(target),
                               names=["fig09"]) == 1
        assert json.loads(target.read_text())["results"] == [
            {"experiment": "fig09_link_traffic", "ok": False,
             "error": "RuntimeError: boom"}]
        assert "failed experiments: fig09_link_traffic" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--repeat", "3"], ["--max-regress", "0.15"],
        ["--trajectory", "t.jsonl"]])
    def test_deleted_flags_are_argparse_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["bench", "--scale", "quick", "--only", "tab01"]
                     + flag)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestReplay:
    def test_replay_single_strategy(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        cli.main(["trace", "generate", "--scale", "quick",
                  "--out", str(out)])
        capsys.readouterr()
        assert cli.main(["replay", str(out), "--strategy", "netagg",
                         "--scale", "quick"]) == 0
        text = capsys.readouterr().out
        assert "netagg" in text and "slowdown" in text

    def test_replay_all_picks_a_winner(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        cli.main(["trace", "generate", "--scale", "quick",
                  "--out", str(out)])
        capsys.readouterr()
        assert cli.main(["replay", str(out), "--scale", "quick"]) == 0
        text = capsys.readouterr().out
        assert "best 99th-percentile FCT:" in text
        for name in ("none", "rack", "binary", "chain", "netagg"):
            assert name in text


class TestBadTraceFile:
    """A trace file that is missing or malformed ends ``replay`` and
    ``trace inspect`` with one stderr line naming the file (exit 1),
    not a traceback."""

    @pytest.mark.parametrize("command", [["replay"], ["trace", "inspect"]],
                             ids=["replay", "trace-inspect"])
    @pytest.mark.parametrize("content, error", [
        (None, "No such file or directory"),
        ('{"type": "job", "job_id": 1}\n', "bad job record"),
    ], ids=["missing", "malformed"])
    def test_one_line_and_exit_1(self, tmp_path, command, content, error):
        path = tmp_path / "trace.jsonl"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *command, str(path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert str(path) in lines[0] and error in lines[0]


class TestUniformContract:
    """Every workload subcommand shares the --scale/--seed/--out trio."""

    SUBCOMMANDS = ("run", "bench", "trace", "analyze", "serve", "loadgen")

    def test_all_subcommands_accept_the_trio(self):
        parser = cli.build_parser()
        sub_actions = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0])))
        for name in self.SUBCOMMANDS:
            command = sub_actions.choices[name]
            flags = {flag for action in command._actions
                     for flag in action.option_strings}
            for flag in ("--scale", "--seed", "--out"):
                assert flag in flags, f"{name} is missing {flag}"

    def test_out_extension_infers_format(self, tmp_path):
        from repro.experiments import ExperimentResult

        result = ExperimentResult(experiment="x", description="d",
                                  columns=("a",))
        result.add_row(a=1)
        as_json = tmp_path / "r.json"
        as_text = tmp_path / "r.txt"
        cli.write_result(result, str(as_json), announce=False)
        cli.write_result(result, str(as_text), announce=False)
        import json

        assert json.loads(as_json.read_text())["experiment"] == "x"
        assert "== x:" in as_text.read_text()

    def test_analyze_out_infers_text(self, tmp_path, capsys):
        target = tmp_path / "diagnosis.txt"
        assert cli.main(["analyze", "--run", "fig09", "--scale", "quick",
                         "--out", str(target)]) == 0
        capsys.readouterr()
        assert "== analyze:" in target.read_text()


class TestLoadgen:
    def test_loadgen_reports_per_tenant_goodput(self, capsys):
        assert cli.main(["loadgen", "--users", "5000", "--duration", "2",
                         "--scale", "quick", "--seed", "7"]) == 0
        captured = capsys.readouterr()
        assert "slo_attainment" in captured.out
        assert "ALL" in captured.out
        assert "0 accounting errors" in captured.err

    def test_loadgen_accepts_scientific_users(self, capsys):
        assert cli.main(["loadgen", "--users", "1e3", "--duration", "1",
                         "--scale", "quick"]) == 0
        assert "1,000 users" in capsys.readouterr().err

    def test_loadgen_deterministic_replay(self, capsys):
        args = ["loadgen", "--users", "5000", "--duration", "2",
                "--scale", "quick", "--seed", "11"]
        cli.main(args)
        first = capsys.readouterr().out
        cli.main(args)
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("slo", ["-1", "0", "nan"])
    def test_loadgen_refuses_an_slo_nothing_can_meet(self, slo):
        with pytest.raises(ValueError, match="slo must be finite"):
            cli.main(["loadgen", "--users", "1000", "--duration", "1",
                      "--scale", "quick", "--slo", slo])

    def test_loadgen_writes_json(self, tmp_path, capsys):
        import json

        target = tmp_path / "load.json"
        assert cli.main(["loadgen", "--users", "2000", "--duration", "1",
                         "--scale", "quick", "--out", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["experiment"] == "loadgen"
        assert payload["rows"]


class TestUnknownExperimentMessages:
    def test_resolve_error_lists_registry(self):
        with pytest.raises(SystemExit) as err:
            cli.resolve("fig99")
        message = str(err.value)
        assert "unknown experiment 'fig99'" in message
        assert "registered experiments" in message
        assert "fig_overload" in message
        assert "fig08_output_ratio" in message

    def test_bench_only_unknown_lists_registry(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["bench", "--scale", "quick", "--only", "nope",
                      "--out", str(tmp_path / "bench.json")])
        message = str(err.value)
        assert "unknown experiment 'nope'" in message
        assert "fig_overload" in message

    def test_bench_only_known_names_resolve(self, tmp_path):
        import json

        target = tmp_path / "bench.json"
        assert cli.main(["bench", "--scale", "quick",
                         "--only", "fig08", "fig_overload",
                         "--out", str(target)]) == 0
        assert [r["experiment"]
                for r in json.loads(target.read_text())["results"]] == [
            "fig08_output_ratio", "fig_overload"]
