"""Tests for the multiprocess sweep runner (:mod:`repro.experiments.sweep`).

The load-bearing property is determinism: because every sweep cell
carries its own explicit seed, the merged results must be bit-for-bit
identical at any worker count -- parallelism is an implementation
detail, not a semantics change.  The counter-merge contract matters for
the same reason: observability totals cannot depend on whether cells
ran in-process or in fork children.
"""

import multiprocessing
import os

import pytest

from repro.experiments.sweep import (
    SCALES,
    _effective_processes,
    run_parallel,
    sweep,
)
from repro.obs import METRICS
from tests.test_experiments import column

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def _square(x):
    return x * x


def _bump_counter(x):
    METRICS.counter("netsim.test_sweep_probe").inc(x)
    return x


def _bump_cluster_counter(x):
    METRICS.counter("cluster.test_sweep_probe").inc(x)
    return x


class TestEffectiveProcesses:
    def test_single_item_is_serial(self):
        assert _effective_processes(8, 1) == 1

    def test_explicit_one_is_serial(self):
        assert _effective_processes(1, 10) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESSES", "1")
        assert _effective_processes(None, 10) == 1

    def test_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESSES", "lots")
        with pytest.raises(SystemExit):
            _effective_processes(None, 10)

    def test_capped_by_item_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROCESSES", raising=False)
        if not HAVE_FORK:
            pytest.skip("no fork start method")
        assert _effective_processes(64, 3) <= 3


class TestRunParallel:
    def test_serial_matches_map(self):
        items = list(range(7))
        assert run_parallel(_square, items, processes=1) == \
            [x * x for x in items]

    @pytest.mark.skipif(not HAVE_FORK, reason="no fork start method")
    def test_parallel_preserves_order(self):
        items = list(range(11))
        assert run_parallel(_square, items, processes=3) == \
            [x * x for x in items]

    @pytest.mark.skipif(not HAVE_FORK, reason="no fork start method")
    def test_counter_increments_merge_back(self):
        """Child-process ``netsim.*`` counter increments land in the
        parent registry, so totals equal a serial run's."""
        before = METRICS.counter("netsim.test_sweep_probe").value
        run_parallel(_bump_counter, [1, 2, 3, 4], processes=2)
        after = METRICS.counter("netsim.test_sweep_probe").value
        assert after - before == 1 + 2 + 3 + 4

    @pytest.mark.skipif(not HAVE_FORK, reason="no fork start method")
    def test_every_layers_counters_merge_back(self):
        """Not only ``netsim.*``: a ``cluster.*`` increment made in a
        fork child reaches the parent, so the parallel total equals the
        serial one for emulator and platform experiments too."""
        probe = METRICS.counter("cluster.test_sweep_probe")
        start = probe.value
        run_parallel(_bump_cluster_counter, [1, 2, 3, 4], processes=1)
        serial = probe.value - start
        run_parallel(_bump_cluster_counter, [1, 2, 3, 4], processes=2)
        assert probe.value - start - serial == serial == 10


class TestSweep:
    def test_scales_vocabulary(self):
        assert set(SCALES) == {"quick", "bench", "default", "paper"}

    def test_unknown_scale_rejected(self):
        with pytest.raises(KeyError, match="unknown scale"):
            sweep(["fig06"], scales=("warp",), seeds=(1,))

    def test_merged_result_shape(self):
        results = sweep(["fig06"], scales=("quick",), seeds=(1, 2),
                        processes=1)
        assert len(results) == 1
        merged = results[0]
        assert merged.columns[:2] == ("scale", "seed")
        seeds_seen = sorted(set(column(merged, "seed")))
        assert seeds_seen == [1, 2]
        assert all(scale == "quick" for scale in column(merged, "scale"))
        # Four strategies per seed.
        assert len(merged.rows) == 8

    @pytest.mark.skipif(not HAVE_FORK, reason="no fork start method")
    def test_worker_count_does_not_change_results(self):
        """Bit-for-bit determinism: serial and two-worker sweeps of the
        same grid produce identical payloads."""
        grid = dict(scales=("quick",), seeds=(1, 2))
        serial = [r.to_dict() for r in
                  sweep(["fig06"], processes=1, **grid)]
        forked = [r.to_dict() for r in
                  sweep(["fig06"], processes=2, **grid)]
        assert serial == forked


class TestSweepCli:
    def test_cli_sweep_writes_json(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "sweep.json"
        code = main(["sweep", "fig06", "--scale", "quick",
                     "--seeds", "1,2", "--processes", "1",
                     "--out", str(out)])
        assert code == 0
        import json
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert len(payload) == 1
        assert payload[0]["columns"][:2] == ["scale", "seed"]
        assert len(payload[0]["rows"]) == 8

    def test_cli_sweep_rejects_bad_seeds(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="comma-separated integers"):
            main(["sweep", "fig06", "--seeds", "one,two"])

    def test_cli_sweep_rejects_bad_scale(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="unknown scale"):
            main(["sweep", "fig06", "--scale", "warp"])
