"""Cross-layer consistency: the flow simulator and the functional
platform must wire the *same* aggregation trees, the functional byte
counts must match the wire encoding exactly, and the emulator's FIFO
links and the simulator's max-min links must both conserve work."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggbox.functions import TopKFunction
from repro.aggregation import NetAggStrategy, deploy_boxes
from repro.cluster import Resource
from repro.core import NetAggPlatform
from repro.core.tree import TreeBuilder
from repro.netsim.engine import EventQueue
from repro.netsim.network import Link, Network
from repro.netsim.routing import EcmpRouter
from repro.netsim.simulator import FlowSim, FlowSpec
from repro.netsim.vectorized import HAVE_NUMPY
from repro.topology import ThreeTierParams, three_tier
from repro.units import MB
from repro.wire.framing import frame
from repro.wire.records import (
    SearchResult,
    decode_search_results,
    encode_search_results,
)
from repro.workload import AggJob

SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=4
)
WORKERS = ("host:4", "host:8", "host:12")


def make_topo():
    topo = three_tier(SMALL)
    deploy_boxes(topo)
    return topo


class TestSharedTreeConstruction:
    def test_strategy_and_platform_use_same_boxes(self):
        """The simulated flows traverse exactly the boxes the platform's
        trees contain, and enter them where the platform's workers do --
        both are built, and around failed boxes rewired, by
        repro.core.tree.TreeBuilder.build_many."""
        topo = make_topo()
        planned = TreeBuilder(topo).build("req-7", "host:0", list(WORKERS))
        entry, root = planned.worker_entry[0], planned.roots()[0]
        job = AggJob("req-7", "host:0",
                     tuple((h, MB) for h in WORKERS), alpha=0.1)
        for failed in ([], [entry], [root], [root, entry]):
            strategy = NetAggStrategy(fault_view=lambda job: failed) \
                if failed else NetAggStrategy()
            specs = strategy.plan_job(job, topo, EcmpRouter())
            sim_boxes = set()
            sim_entries = {}
            for spec in specs:
                for link in spec.path:
                    if link.startswith("proc:"):
                        sim_boxes.add(link[len("proc:"):])
                if spec.kind == "worker":
                    index = int(spec.flow_id.rsplit(":w", 1)[1])
                    last = spec.path[-1]
                    sim_entries[index] = last[len("proc:"):] \
                        if last.startswith("proc:") else None

            platform = NetAggPlatform(topo)
            for box_id in failed:
                platform.fail_box(box_id)
            tree = platform.build_trees("req-7", "host:0",
                                        list(WORKERS))[0]
            assert sim_boxes == set(tree.boxes)
            assert sim_entries == tree.worker_entry
            if failed:
                assert not set(failed) & sim_boxes
            else:
                assert tree == planned

    def test_tree_selection_consistent_across_layers(self):
        topo = make_topo()
        builder = TreeBuilder(topo)
        for key in ("a", "b", "c"):
            t_strategy = builder.build(key, "host:0", list(WORKERS), 1)
            t_again = builder.build(key, "host:0", list(WORKERS), 1)
            assert set(t_strategy.boxes) == set(t_again.boxes)


class TestByteAccounting:
    def test_platform_bytes_match_wire_encoding(self):
        topo = make_topo()
        platform = NetAggPlatform(topo)
        platform.register_app("solr", TopKFunction(k=3),
                              encode_search_results,
                              decode_search_results)
        partials = [
            (host, [SearchResult(i * 10 + j, float(j)) for j in range(4)])
            for i, host in enumerate(WORKERS)
        ]
        outcome = platform.execute_request("solr", "r", "host:0", partials)

        # Recompute expected framed sizes of everything entering boxes:
        # the three worker payloads plus every box-to-box aggregate.
        tree = platform.build_trees("r", "host:0",
                                    [h for h, _ in partials])[0]
        fn = TopKFunction(k=3)
        expected = sum(
            len(frame(encode_search_results(p))) for _, p in partials
        )

        def aggregate_of(box_id):
            vertex = tree.boxes[box_id]
            inputs = [partials[w][1] for w in vertex.direct_workers]
            inputs += [aggregate_of(c) for c in vertex.children]
            return fn.merge(inputs)

        for box_id, vertex in tree.boxes.items():
            if vertex.parent is not None:
                payload = frame(encode_search_results(
                    aggregate_of(box_id)))
                expected += len(payload)
        assert outcome.bytes_into_boxes == pytest.approx(expected)

    def test_aggregation_reduces_bytes_into_master_path(self):
        """The box nearest the master receives less than the raw total
        whenever the merge actually reduces (top-k across many)."""
        topo = make_topo()
        platform = NetAggPlatform(topo)
        platform.register_app("solr", TopKFunction(k=2),
                              encode_search_results,
                              decode_search_results)
        partials = [
            (host, [SearchResult(i * 100 + j, float(j), "x" * 50)
                    for j in range(20)])
            for i, host in enumerate(WORKERS)
        ]
        raw_bytes = sum(
            len(frame(encode_search_results(p))) for _, p in partials
        )
        outcome = platform.execute_request("solr", "r", "host:0", partials)
        final_payload = encode_search_results(outcome.value)
        assert len(final_payload) < raw_bytes / 3


class TestWorkConservation:
    """n transfers of sizes s_i start together through one bottleneck of
    rate C.  The emulator serves them one at a time (FIFO ``Resource``),
    the simulator shares the link among them (max-min ``FlowSim``); both
    are work-conserving, so in both the last one finishes at sum(s_i)/C.

    The float bound, relative to sum(s_i)/C: ``REL_BOUND`` = 1e-8.  The
    FIFO queue adds n service times one at a time (n roundings of about
    1e-16 each).  The simulator calls a flow drained once at most
    ``EPSILON`` (1e-9) of its bytes remain, so it can stop up to 1e-9 of
    the total early, plus one rounding per rate epoch.
    """

    REL_BOUND = 1e-8
    SOLVERS = ("vectorized", "incremental") if HAVE_NUMPY else (
        "incremental",)

    @staticmethod
    def fifo_end(sizes, rate):
        queue = EventQueue()
        link = Resource(queue, "bottleneck", rate)
        done = []
        for size in sizes:
            link.request(size, lambda: done.append(queue.now))
        queue.run()
        assert len(done) == len(sizes)
        return max(done)

    @staticmethod
    def max_min_end(sizes, rate, solver):
        sim = FlowSim(Network([Link("bottleneck", rate)]), solver=solver)
        for i, size in enumerate(sizes):
            sim.add_flow(FlowSpec(f"f{i}", size=size, path=("bottleneck",)))
        result = sim.run()
        return max(record.drain_time for record in result.records.values())

    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.floats(1.0, 1e10), min_size=1, max_size=24),
           rate=st.floats(1e3, 1e11))
    def test_last_transfer_ends_at_total_over_rate(self, sizes, rate):
        expected = sum(sizes) / rate
        bound = self.REL_BOUND * expected
        assert abs(self.fifo_end(sizes, rate) - expected) <= bound
        for solver in self.SOLVERS:
            assert abs(self.max_min_end(sizes, rate, solver)
                       - expected) <= bound, solver
