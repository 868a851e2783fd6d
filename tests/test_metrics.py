"""Tests for simulation metric helpers."""

import pytest

from repro.netsim.metrics import (
    FctSummary,
    fct_summary,
    relative_p99,
)
from repro.netsim.network import Link, Network
from repro.netsim.simulator import FlowSim, FlowSpec


def run_sim(sizes, capacity=10.0):
    net = Network([Link("l", capacity)])
    sim = FlowSim(net)
    for i, size in enumerate(sizes):
        sim.add_flow(FlowSpec(f"f{i}", size=size, path=("l",),
                              aggregatable=(i % 2 == 0)))
    return sim.run()


class TestFctSummary:
    def test_fields(self):
        summary = FctSummary.of([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.median == 2.5
        assert summary.maximum == 4.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            FctSummary.of([])

    def test_empty_error_surfaces_filter_context(self):
        result = run_sim([10.0])
        with pytest.raises(ValueError) as err:
            fct_summary(result, kinds=("no-such-kind",))
        message = str(err.value)
        assert "no-such-kind" in message
        assert "simulated flows=1" in message

    def test_empty_ok_degrades_to_nan_row(self):
        import math

        result = run_sim([10.0])
        summary = fct_summary(result, kinds=("no-such-kind",),
                              empty_ok=True)
        assert summary.count == 0
        assert math.isnan(summary.p99) and math.isnan(summary.median)

    def test_from_result_with_filters(self):
        result = run_sim([10.0, 20.0, 30.0])
        assert fct_summary(result).count == 3
        assert fct_summary(result, aggregatable=True).count == 2

    def test_no_match_raises(self):
        result = run_sim([10.0])
        with pytest.raises(ValueError):
            fct_summary(result, kinds=("ghost",))


class TestRelativeP99:
    def test_identity_is_one(self):
        result = run_sim([10.0, 20.0])
        assert relative_p99(result, result) == pytest.approx(1.0)

    def test_faster_network_below_one(self):
        slow = run_sim([10.0, 20.0], capacity=5.0)
        fast = run_sim([10.0, 20.0], capacity=10.0)
        assert relative_p99(fast, slow) == pytest.approx(0.5)

    def test_nan_baseline_raises_with_context(self):
        # A flow that never drained (e.g. a truncated or stalled run)
        # keeps its NaN drain_time, so the baseline p99 is NaN; NaN
        # compares False against 0 and used to slip past the zero
        # guard, silently poisoning every downstream ratio.
        from repro.netsim.simulator import (
            FlowRecord,
            SimulationResult,
        )

        net = Network([Link("l", 10.0)])
        stalled = SimulationResult(
            records={"f0": FlowRecord(
                spec=FlowSpec("f0", size=10.0, path=("l",)),
                drain_time=float("nan"))},
            network=net, end_time=1.0)
        result = run_sim([10.0, 20.0])
        with pytest.raises(ValueError) as err:
            relative_p99(result, stalled)
        message = str(err.value)
        assert "NaN" in message
        assert "simulated flows=1" in message


class TestSlowdowns:
    def test_uncontended_flow_has_slowdown_one(self):
        from repro.netsim.metrics import slowdowns

        result = run_sim([100.0])
        net = result.network
        (value,) = slowdowns(result, net)
        assert value == pytest.approx(1.0)

    def test_sharing_raises_slowdown(self):
        from repro.netsim.metrics import slowdown_summary

        result = run_sim([100.0, 100.0])
        summary = slowdown_summary(result, result.network)
        assert summary.maximum == pytest.approx(2.0)

    def test_pathless_flows_skipped(self):
        from repro.netsim.metrics import slowdowns
        from repro.netsim.network import Link, Network
        from repro.netsim.simulator import FlowSim, FlowSpec

        net = Network([Link("l", 10.0)])
        sim = FlowSim(net)
        sim.add_flow(FlowSpec("empty", size=5.0))
        sim.add_flow(FlowSpec("real", size=5.0, path=("l",)))
        result = sim.run()
        assert len(slowdowns(result, net)) == 1


class TestTierTraffic:
    def test_netagg_reduces_core_tier_bytes(self):
        """The paper's core-relief mechanism, observed directly."""
        from repro.aggregation import (NetAggStrategy, NoAggregationStrategy,
                                       deploy_boxes)
        from repro.topology import ThreeTierParams, three_tier
        from repro.units import MB
        from repro.workload import AggJob, Workload

        params = ThreeTierParams(n_pods=2, tors_per_pod=2,
                                 aggrs_per_pod=2, n_cores=2,
                                 hosts_per_tor=4)
        job = AggJob("j", "host:0",
                     tuple((f"host:{h}", MB) for h in (8, 9, 12, 13)),
                     alpha=0.1)

        def core_bytes(strategy, with_boxes):
            topo = three_tier(params)
            if with_boxes:
                deploy_boxes(topo)
            sim = FlowSim(topo.network)
            sim.add_flows(strategy.plan(Workload(jobs=[job]), topo))
            return sum(
                nbytes for link, nbytes
                in sim.run().link_traffic().items()
                if "box" not in link and {end.split(":")[0] for end in
                                          link.split("->")}
                == {"aggr", "core"})

        plain = core_bytes(NoAggregationStrategy(), False)
        netagg = core_bytes(NetAggStrategy(), True)
        assert netagg < plain / 3
