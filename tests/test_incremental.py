"""Tests for the incremental max-min solver.

The property suite drives :class:`IncrementalMaxMin` through random
histories of flow arrivals, completions, reroutes and mid-run capacity
changes, and cross-checks every intermediate allocation against the
exact batch solver :func:`repro.netsim.fairness.max_min_rates_py` run
from scratch on the same instance.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.fairness import max_min_rates_py
from repro.netsim.incremental import IncrementalMaxMin

#: The incremental kernel and the lock-step batch solver accumulate
#: floating-point error differently; agreement is to ~1e-9 relative.
REL = 1e-9
ABS = 1e-9


def assert_matches_exact(solver, flows, links):
    got = solver.rates()
    want = max_min_rates_py(flows, links)
    assert set(got) == set(want)
    for flow_id in want:
        if math.isinf(want[flow_id]):
            assert math.isinf(got[flow_id]), flow_id
        else:
            assert got[flow_id] == pytest.approx(
                want[flow_id], rel=REL, abs=ABS), flow_id


class TestBasics:
    def test_empty(self):
        solver = IncrementalMaxMin({"l": 10.0})
        assert dict(solver.rates()) == {}
        assert len(solver) == 0

    def test_single_flow_gets_full_link(self):
        solver = IncrementalMaxMin({"l": 10.0})
        solver.add_flow("f", ["l"])
        assert solver.rate("f") == pytest.approx(10.0)
        assert "f" in solver

    def test_classic_three_flow_example(self):
        solver = IncrementalMaxMin({"l1": 10.0, "l2": 6.0})
        solver.add_flow("a", ["l1"])
        solver.add_flow("b", ["l1", "l2"])
        solver.add_flow("c", ["l2"])
        rates = solver.rates()
        assert rates["b"] == pytest.approx(3.0)
        assert rates["c"] == pytest.approx(3.0)
        assert rates["a"] == pytest.approx(7.0)

    def test_removal_redistributes(self):
        solver = IncrementalMaxMin({"l": 9.0})
        solver.add_flow("a", ["l"])
        solver.add_flow("b", ["l"])
        solver.add_flow("c", ["l"])
        assert solver.rate("a") == pytest.approx(3.0)
        solver.remove_flow("b")
        rates = solver.rates()
        assert rates["a"] == pytest.approx(4.5)
        assert "b" not in rates

    def test_linkless_flow_unbounded_or_capped(self):
        solver = IncrementalMaxMin({})
        solver.add_flow("free", [])
        assert math.isinf(solver.rates()["free"])

    def test_repeated_link_charged_once(self):
        solver = IncrementalMaxMin({"l": 10.0})
        solver.add_flow("f", ["l", "l"])
        assert solver.rate("f") == pytest.approx(10.0)

    def test_set_capacity_down_and_up(self):
        solver = IncrementalMaxMin({"l": 10.0})
        solver.add_flow("a", ["l"])
        solver.add_flow("b", ["l"])
        solver.rates()
        solver.set_capacity("l", 4.0)
        assert solver.rate("a") == pytest.approx(2.0)
        solver.set_capacity("l", 0.0)
        assert solver.rate("a") == pytest.approx(0.0)
        solver.set_capacity("l", 12.0)
        assert solver.rate("b") == pytest.approx(6.0)

    def test_duplicate_flow_rejected(self):
        solver = IncrementalMaxMin({"l": 1.0})
        solver.add_flow("f", ["l"])
        with pytest.raises(ValueError):
            solver.add_flow("f", ["l"])

    def test_unknown_link_rejected(self):
        solver = IncrementalMaxMin({"l": 1.0})
        with pytest.raises(KeyError):
            solver.add_flow("f", ["nope"])
        with pytest.raises(KeyError):
            solver.set_capacity("nope", 1.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            IncrementalMaxMin({"l": -1.0})
        solver = IncrementalMaxMin({"l": 1.0})
        with pytest.raises(ValueError):
            solver.set_capacity("l", -2.0)

    def test_cache_hit_without_perturbation(self):
        solver = IncrementalMaxMin({"l": 10.0})
        solver.add_flow("f", ["l"])
        solver.rates()
        solves = solver.stats.solves
        solver.rates()
        solver.rates()
        assert solver.stats.solves == solves
        assert solver.stats.cache_hits >= 2

    def test_untouched_component_not_resolved(self):
        solver = IncrementalMaxMin({"l1": 10.0, "l2": 10.0})
        solver.add_flow("a", ["l1"])
        solver.add_flow("b", ["l2"])
        solver.rates()
        resolved = solver.stats.flows_resolved
        solver.add_flow("c", ["l2"])
        solver.rates()
        # Only the l2 component (b, c) re-solves; a's rate is reused.
        assert solver.stats.flows_resolved == resolved + 2
        assert solver.stats.flows_reused >= 1


@st.composite
def random_history(draw):
    """A capacity map plus a random op history over it.

    Ops: ("add", fid, path) / ("remove", fid) /
    ("reroute", fid, path) / ("capacity", link, value) / ("solve",).
    """
    n_links = draw(st.integers(1, 6))
    links = {f"l{i}": draw(st.floats(0.5, 100.0)) for i in range(n_links)}
    link_ids = sorted(links)
    ops = []
    active = []
    n_ops = draw(st.integers(1, 30))
    next_fid = 0
    for _ in range(n_ops):
        kind = draw(st.sampled_from(
            ["add", "add", "add", "remove", "reroute", "capacity",
             "solve"]))
        if kind == "add" or (kind in ("remove", "reroute") and not active):
            fid = f"f{next_fid}"
            next_fid += 1
            path_len = draw(st.integers(0, min(4, n_links)))
            path = draw(st.lists(st.sampled_from(link_ids),
                                 min_size=path_len, max_size=path_len,
                                 unique=True))
            ops.append(("add", fid, path))
            active.append(fid)
        elif kind == "remove":
            fid = draw(st.sampled_from(active))
            active.remove(fid)
            ops.append(("remove", fid))
        elif kind == "reroute":
            fid = draw(st.sampled_from(active))
            path_len = draw(st.integers(0, min(4, n_links)))
            path = draw(st.lists(st.sampled_from(link_ids),
                                 min_size=path_len, max_size=path_len,
                                 unique=True))
            ops.append(("reroute", fid, path))
        elif kind == "capacity":
            link = draw(st.sampled_from(link_ids))
            value = draw(st.one_of(st.just(0.0), st.floats(0.5, 100.0)))
            ops.append(("capacity", link, value))
        else:
            ops.append(("solve",))
    return links, ops


class TestPropertyBased:
    @given(random_history())
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_solver_throughout(self, history):
        """After every mutation batch, the incremental allocation equals
        a from-scratch exact solve of the current instance -- including
        mid-run capacity events and interleaved warm-started solves."""
        links, ops = history
        capacities = dict(links)
        solver = IncrementalMaxMin(capacities)
        flows = {}
        for op in ops:
            if op[0] == "add":
                _, fid, path = op
                solver.add_flow(fid, path)
                flows[fid] = path
            elif op[0] == "remove":
                solver.remove_flow(op[1])
                del flows[op[1]]
            elif op[0] == "reroute":
                _, fid, path = op
                # The simulator moves a flow by leave + attach.
                solver.remove_flow(fid)
                solver.add_flow(fid, path)
                flows[fid] = path
            elif op[0] == "capacity":
                _, link, value = op
                solver.set_capacity(link, value)
                capacities[link] = value
            else:
                assert_matches_exact(solver, flows, capacities)
        assert_matches_exact(solver, flows, capacities)

    @given(random_history())
    @settings(max_examples=100, deadline=None)
    def test_no_link_overloaded_and_caps_respected(self, history):
        links, ops = history
        capacities = dict(links)
        solver = IncrementalMaxMin(capacities)
        flows = {}
        for op in ops:
            if op[0] == "add":
                _, fid, path = op
                solver.add_flow(fid, path)
                flows[fid] = path
            elif op[0] == "remove":
                solver.remove_flow(op[1])
                del flows[op[1]]
            elif op[0] == "reroute":
                _, fid, path = op
                # The simulator moves a flow by leave + attach.
                solver.remove_flow(fid)
                solver.add_flow(fid, path)
                flows[fid] = path
            elif op[0] == "capacity":
                _, link, value = op
                solver.set_capacity(link, value)
                capacities[link] = value
        rates = solver.rates()
        for link, capacity in capacities.items():
            load = sum(rates[f] for f, path in flows.items()
                       if link in path)
            assert load <= capacity * (1 + 1e-6) + 1e-9

    @given(random_history())
    @settings(max_examples=50, deadline=None)
    def test_incremental_equals_fresh_instance(self, history):
        """A warm solver and a freshly built one agree bit-for-bit on
        the final instance (the warm path introduces no drift beyond
        the comparison tolerance)."""
        links, ops = history
        capacities = dict(links)
        warm = IncrementalMaxMin(capacities)
        flows = {}
        for op in ops:
            if op[0] == "add":
                _, fid, path = op
                warm.add_flow(fid, path)
                flows[fid] = path
            elif op[0] == "remove":
                warm.remove_flow(op[1])
                del flows[op[1]]
            elif op[0] == "reroute":
                _, fid, path = op
                warm.remove_flow(fid)
                warm.add_flow(fid, path)
                flows[fid] = path
            elif op[0] == "capacity":
                _, link, value = op
                warm.set_capacity(link, value)
                capacities[link] = value
            else:
                warm.rates()
        cold = IncrementalMaxMin(capacities)
        for fid, path in flows.items():
            cold.add_flow(fid, path)
        warm_rates = warm.rates()
        cold_rates = cold.rates()
        for fid in flows:
            if math.isinf(cold_rates[fid]):
                assert math.isinf(warm_rates[fid])
            else:
                assert warm_rates[fid] == pytest.approx(
                    cold_rates[fid], rel=REL, abs=ABS)
