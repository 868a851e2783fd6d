"""Cross-validation: the event-driven simulator must agree with the
brute-force time-stepped reference within step granularity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.network import Link, Network
from repro.netsim.reference import simulate_reference
from repro.netsim.simulator import FlowSim, FlowSpec

STEP = 0.01


def make_network():
    return Network([
        Link("l1", 10.0), Link("l2", 7.0), Link("l3", 13.0),
    ])


def run_both(specs):
    network = make_network()
    sim = FlowSim(network)
    sim.add_flows(specs)
    exact = sim.run()
    reference = simulate_reference(make_network(), specs, time_step=STEP)
    return exact, reference


def assert_agree(specs, tolerance=None):
    exact, reference = run_both(specs)
    # Each completion shifts subsequent admissions, so errors can chain:
    # allow one step per flow plus one.
    tolerance = tolerance or (STEP * (len(specs) + 1))
    for spec in specs:
        record = exact.records[spec.flow_id]
        ref_admitted, ref_drained = reference[spec.flow_id]
        assert record.drain_time == pytest.approx(
            ref_drained, abs=tolerance
        ), spec.flow_id
        assert record.admitted_time == pytest.approx(
            ref_admitted, abs=tolerance
        ), spec.flow_id


class TestCrossValidation:
    def test_single_flow(self):
        assert_agree([FlowSpec("f", size=25.0, path=("l1",))])

    def test_shared_link(self):
        assert_agree([
            FlowSpec("a", size=10.0, path=("l1",)),
            FlowSpec("b", size=30.0, path=("l1",)),
        ])

    def test_multi_bottleneck(self):
        assert_agree([
            FlowSpec("a", size=20.0, path=("l1",)),
            FlowSpec("b", size=20.0, path=("l1", "l2")),
            FlowSpec("c", size=20.0, path=("l2", "l3")),
        ])

    def test_staggered_starts(self):
        assert_agree([
            FlowSpec("a", size=30.0, path=("l1",)),
            FlowSpec("b", size=10.0, path=("l1",), start_time=1.5),
            FlowSpec("c", size=10.0, path=("l2",), start_time=3.0),
        ])

    def test_dependency_chain(self):
        assert_agree([
            FlowSpec("leaf", size=20.0, path=("l1",)),
            FlowSpec("mid", size=5.0, path=("l2",), children=("leaf",)),
            FlowSpec("root", size=5.0, path=("l3",), children=("mid",)),
        ])

    def test_zero_size_and_empty_path(self):
        assert_agree([
            FlowSpec("instant", size=0.0, path=("l1",), start_time=1.0),
            FlowSpec("pathless", size=5.0),
            FlowSpec("real", size=10.0, path=("l1",),
                     children=("instant",)),
        ])

    @given(st.lists(
        st.tuples(
            st.floats(1.0, 40.0),            # size
            st.floats(0.0, 2.0),             # start
            st.sampled_from([("l1",), ("l2",), ("l1", "l2"),
                             ("l2", "l3"), ("l1", "l3")]),
        ),
        min_size=1, max_size=8,
    ))
    @settings(max_examples=40, deadline=None)
    def test_random_flow_sets_agree(self, rows):
        specs = [
            FlowSpec(f"f{i}", size=size, start_time=start, path=path)
            for i, (size, start, path) in enumerate(rows)
        ]
        assert_agree(specs)

    @given(st.lists(st.floats(1.0, 30.0), min_size=2, max_size=6),
           st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_random_dependency_trees_agree(self, sizes, shape):
        specs = [FlowSpec("f0", size=sizes[0], path=("l1",))]
        for i, size in enumerate(sizes[1:], start=1):
            parent = (i - 1) // 2 if shape % 2 else max(0, i - 1)
            specs.append(FlowSpec(
                f"f{i}", size=size,
                path=("l2",) if i % 2 else ("l3",),
                children=(f"f{parent}",),
            ))
        assert_agree(specs)

    def test_reference_validates_step(self):
        with pytest.raises(ValueError):
            simulate_reference(make_network(), [], time_step=0.0)
