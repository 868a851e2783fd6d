"""Integration tests: every paper experiment regenerates with the right
shape (who wins, which way the curve bends) at QUICK/CI scale."""

import pytest

from repro.experiments import QUICK
from repro.experiments import (
    fig02_processing_rate,
    fig03_cost,
    fig06_fct_cdf,
    fig07_nonagg_cdf,
    fig08_output_ratio,
    fig09_link_traffic,
    fig10_agg_fraction,
    fig11_oversub,
    fig12_partial,
    fig13_10g_scaleout,
    fig14_stragglers,
    fig15_localtree,
    fig16_solr_throughput,
    fig17_solr_latency,
    fig18_solr_ratio,
    fig19_solr_tworack,
    fig20_solr_scaleout,
    fig21_solr_scaleup,
    fig22_hadoop_jobs,
    fig23_hadoop_ratio,
    fig24_hadoop_datasize,
    fig25_fair_fixed,
    fig26_fair_adaptive,
    tab01_loc,
)


def column(result, name):
    """One column of ``result``'s rows, in row order."""
    assert name in result.columns, name
    return [row[name] for row in result.rows]


# Several simulation figures are noisy at QUICK scale; shape assertions
# here use generous margins, EXPERIMENTS.md records DEFAULT-scale runs.


class TestSimulationFigures:
    def test_fig02_netagg_beats_rack(self):
        result = fig02_processing_rate.run(scale=QUICK)
        assert all(v < 1.1 for v in column(result, "relative_p99"))

    def test_fig02_oversub_rows_present(self):
        result = fig02_processing_rate.run(scale=QUICK)
        assert set(column(result, "oversubscription")) == {1.0, 4.0}

    def test_fig03_netagg_cheap_and_effective(self):
        result = fig03_cost.run(scale=QUICK)
        rows = {r["configuration"]: r for r in result.rows}
        # QUICK's box-to-host ratio is unrealistically high; the paper-
        # scale cost ratios are asserted in test_cost.py.  Here: ordering.
        assert rows["NetAgg"]["upgrade_cost_usd"] < \
            rows["Oversub-10G"]["upgrade_cost_usd"]
        assert rows["NetAgg"]["relative_p99"] < 1.0
        assert rows["Incremental-NetAgg"]["upgrade_cost_usd"] < \
            rows["NetAgg"]["upgrade_cost_usd"]
        assert rows["FullBisec-10G"]["upgrade_cost_usd"] == max(
            r["upgrade_cost_usd"] for r in result.rows
        )

    def test_fig06_rows(self):
        result = fig06_fct_cdf.run(scale=QUICK)
        strategies = column(result, "strategy")
        assert strategies == ["rack", "binary", "chain", "netagg"]
        for row in result.rows:
            assert row["p50"] <= row["p99"] <= row["p100"]

    def test_fig07_netagg_helps_nonaggregatable(self):
        result = fig07_nonagg_cdf.run(scale=QUICK)
        rows = {r["strategy"]: r for r in result.rows}
        assert rows["netagg"]["p99"] <= rows["rack"]["p99"] * 1.15

    def test_fig08_netagg_benefit_decays_with_alpha(self):
        result = fig08_output_ratio.run(scale=QUICK)
        netagg = column(result, "netagg")
        assert netagg[0] < 0.9  # strong win at alpha=5%
        assert netagg[-1] > netagg[0]  # benefit shrinks at alpha=100%

    def test_fig09_chain_carries_most_traffic(self):
        result = fig09_link_traffic.run(scale=QUICK)
        rows = {r["strategy"]: r for r in result.rows}
        assert rows["chain"]["median_vs_rack"] > \
            rows["netagg"]["median_vs_rack"]
        assert rows["chain"]["median_vs_rack"] > 1.05
        assert rows["netagg"]["median_vs_rack"] < 1.0

    def test_fig10_netagg_wins_at_full_aggregatability(self):
        result = fig10_agg_fraction.run(scale=QUICK)
        last = result.rows[-1]
        assert last["fraction"] == 1.0
        assert last["netagg"] < 1.0
        # More aggregatable traffic must not erode NetAgg's advantage.
        assert last["netagg"] <= result.rows[0]["netagg"] * 1.1

    def test_fig11_more_oversub_more_benefit(self):
        result = fig11_oversub.run(scale=QUICK)
        netagg = column(result, "netagg")
        assert netagg[-1] < 1.0  # clear win at 16:1
        assert all(v < 1.2 for v in netagg)

    def test_fig12_full_deployment_best(self):
        result = fig12_partial.run(scale=QUICK)
        rows = {r["deployment"]: r["relative_p99"] for r in result.rows}
        assert rows["full"] <= min(rows["tor-only"], rows["aggr-only"],
                                   rows["core-only"]) * 1.05
        assert rows["full"] < 1.0

    def test_fig13_scale_out_helps_in_10g(self):
        result = fig13_10g_scaleout.run(scale=QUICK)
        for row in result.rows:
            assert row["x4_boxes"] <= row["x1_boxes"] * 1.1

    def test_fig14_benefit_decays_with_stragglers(self):
        result = fig14_stragglers.run(scale=QUICK)
        values = column(result, "netagg_relative_p99")
        assert values[0] < 1.0
        # Stragglers erode (but need not erase) the benefit.
        assert values[-1] >= values[0] * 0.8


class TestTestbedFigures:
    def test_fig15_threads_raise_plateau(self):
        result = fig15_localtree.run(scale=QUICK)
        last = result.rows[-1]
        assert last["threads_32"] > last["threads_8"]
        first = result.rows[0]
        assert last["threads_32"] > first["threads_32"]

    def test_fig16_netagg_multiplies_throughput(self):
        result = fig16_solr_throughput.run(scale=QUICK)
        last = result.rows[-1]
        assert last["netagg_gbps"] > 5 * last["solr_gbps"]

    def test_fig17_netagg_lower_latency(self):
        result = fig17_solr_latency.run(scale=QUICK)
        row = result.rows[0]
        assert row["netagg_p99_s"] < row["solr_p99_s"]

    def test_fig18_alpha_sweep_decreasing(self):
        result = fig18_solr_ratio.run(scale=QUICK)
        series = column(result, "netagg_gbps")
        assert series[0] > series[1] > series[2] * 0.99

    def test_fig19_two_racks_double(self):
        result = fig19_solr_tworack.run(scale=QUICK)
        for row in result.rows:
            assert row["two_racks_gbps"] == pytest.approx(
                2 * row["one_rack_gbps"], rel=0.25
            )

    def test_fig20_second_box_doubles(self):
        result = fig20_solr_scaleout.run(scale=QUICK)
        row = result.rows[0]
        assert row["two_boxes_gbps"] > 1.6 * row["one_box_gbps"]

    def test_fig21_categorise_scales_sample_flat(self):
        result = fig21_solr_scaleup.run(scale=QUICK)
        rows = {r["cores"]: r for r in result.rows}
        # Categorise is CPU-bound: near-linear core scaling.
        assert rows[16]["categorise_gbps"] > 3.0 * rows[2]["categorise_gbps"]
        # Sample is network-bound from a handful of cores on.
        assert rows[16]["sample_gbps"] == pytest.approx(
            rows[4]["sample_gbps"], rel=0.1
        )

    def test_fig22_job_character(self):
        result = fig22_hadoop_jobs.run(scale=QUICK)
        rows = {r["job"]: r for r in result.rows}
        assert rows["WC"]["relative_srt"] < 0.5  # big win
        assert rows["TS"]["relative_srt"] == pytest.approx(1.0)  # none
        assert rows["AP"]["relative_srt"] > rows["UV"]["relative_srt"]

    def test_fig23_relative_srt_rises_with_alpha(self):
        result = fig23_hadoop_ratio.run(scale=QUICK)
        series = column(result, "relative_srt")
        assert series[0] < series[-1]
        alphas = column(result, "measured_alpha")
        assert alphas[0] < alphas[-1]

    def test_fig24_speedup_grows_with_data(self):
        result = fig24_hadoop_datasize.run(scale=QUICK)
        speedups = column(result, "speedup")
        assert speedups[-1] > speedups[0] > 1.5

    def test_fig25_fixed_weights_starve(self):
        result = fig25_fair_fixed.run(scale=QUICK)
        assert "solr=0.9" in result.notes or float(
            result.notes.split("solr=")[1].split()[0]) > 0.85

    def test_fig26_adaptive_restores_fairness(self):
        result = fig26_fair_adaptive.run(scale=QUICK)
        solr_share = float(result.notes.split("solr=")[1].split()[0])
        assert solr_share == pytest.approx(0.5, abs=0.08)

    def test_tab01_plugins_are_small(self):
        result = tab01_loc.run(scale=QUICK)
        rows = [r for r in result.rows
                if r["role"] == "box serialisation + wrapper"]
        assert rows
        for row in rows:
            assert row["loc"] < 300  # a few hundred lines, as in Table 1


class TestExtraAblations:
    def test_fattree_more_trees_never_worse(self):
        from repro.experiments import ablation_fattree

        result = ablation_fattree.run(scale=QUICK)
        values = column(result, "relative_p99")
        assert values[1] <= values[0] * 1.05

    def test_reducers_ablation_decays(self):
        from repro.experiments import ablation_reducers

        result = ablation_reducers.run(scale=QUICK)
        speedups = column(result, "speedup")
        assert speedups[0] > speedups[1] > 1.0

    def test_arrivals_ablation_is_robust(self):
        from repro.experiments import ablation_arrivals

        result = ablation_arrivals.run(scale=QUICK)
        values = column(result, "netagg_relative_p99")
        assert all(v < 1.1 for v in values)
        # The paper: dynamic arrival patterns give comparable results.
        assert max(values) < 3 * min(values)



class TestFigFailures:
    def test_quick_shape_and_exactness(self):
        from repro.experiments import fig_failures

        result = fig_failures.run(scale=QUICK, fault_rates=(0.0, 0.2))
        rates = column(result, "fault_rate")
        assert rates == [0.0, 0.2]
        degradations = column(result, "netagg_degradation")
        assert degradations[0] == pytest.approx(1.0)
        # Faults may only slow aggregation down, never corrupt it.  The
        # FCT shift is noisy at QUICK scale (a reroute can even land a
        # tail flow on a quieter path), so only exactness is strict.
        assert all(column(result, "exact"))
        assert all(0.2 < d < 20.0 for d in degradations)

    def test_quick_deterministic(self):
        from repro.experiments import fig_failures

        a = fig_failures.run(scale=QUICK, seed=5, fault_rates=(0.2,))
        b = fig_failures.run(scale=QUICK, seed=5, fault_rates=(0.2,))
        assert a.rows == b.rows


class TestLegacyEntrypoints:
    """The ad-hoc-keyword shim is retired: legacy calls fail loudly.

    Figure modules used to forward ``run(clients=..., duration=...)``
    through a ``DeprecationWarning`` shim; the shim is now a hard
    ``TypeError`` carrying a migration hint to the canonical
    ``run(scale=..., seed=...)`` signature.
    """

    def test_adhoc_kwargs_raise_type_error(self):
        with pytest.raises(TypeError,
                           match="fig16_solr_throughput.run"):
            fig16_solr_throughput.run(clients=(10,), duration=5.0)

    def test_error_names_the_offending_knobs_and_the_fix(self):
        with pytest.raises(TypeError) as excinfo:
            fig16_solr_throughput.run(clients=(10,), duration=5.0)
        message = str(excinfo.value)
        assert "clients" in message and "duration" in message
        assert "run(scale=..., seed=...)" in message

    def test_seed_merging_variant_also_raises(self):
        # Modules that used to merge {"seed": seed, **knobs} into the
        # shim must reject the ad-hoc knob but still name only *it*
        # (seed stays a canonical argument).
        with pytest.raises(TypeError) as excinfo:
            fig22_hadoop_jobs.run(intermediate_bytes=1e6)
        assert "intermediate_bytes" in str(excinfo.value)
        assert "seed" not in str(excinfo.value).split("(")[1].split(")")[0]

    def test_canonical_call_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = tab01_loc.run(scale=QUICK)
        assert result.rows

    def test_canonical_seed_still_accepted(self):
        result = fig16_solr_throughput.run(scale=QUICK, seed=2)
        assert result.rows


class TestFigOverload:
    def test_quick_registered(self):
        from repro.experiments import load

        exp = load("fig_overload")
        assert exp.name == "fig_overload"
        assert "overload" in exp.summary

    def test_quick_graceful_with_control(self):
        from repro.experiments import fig_overload

        result = fig_overload.run(scale=QUICK, loads=(0.5, 3.0))
        assert column(result, "load") == [0.5, 3.0]
        for row in result.rows:
            for name in ("ctrl_goodput", "nc_goodput", "edge_goodput"):
                assert 0.0 <= row[name] <= 1.0
        # At the heaviest load the admission/re-planning arm must hold
        # goodput at least as well as the uncontrolled arm (graceful
        # degradation vs the cliff).
        heavy = result.rows[-1]
        assert heavy["ctrl_goodput"] >= heavy["nc_goodput"]

    def test_quick_deterministic(self):
        from repro.experiments import fig_overload

        a = fig_overload.run(scale=QUICK, seed=3, loads=(2.0,))
        b = fig_overload.run(scale=QUICK, seed=3, loads=(2.0,))
        assert a.rows == b.rows
