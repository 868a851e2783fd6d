"""Tests for the vectorized (numpy) max-min solver backend.

Mirrors ``test_incremental.py``: the property suite drives
:class:`VectorizedMaxMin` through random histories of flow arrivals,
completions, reroutes and capacity changes and cross-checks every
intermediate allocation against both the exact batch solver
(:func:`repro.netsim.fairness.max_min_rates_py` from scratch) and the
pure-Python :class:`IncrementalMaxMin` warm solver -- the three
implementations must agree to ~1e-9 on the unique max-min allocation.

The whole module is skipped when numpy is not importable (the CI
no-numpy leg); ``make_solver``'s fallback keeps its own coverage in
``TestBackendSelection``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.fairness import max_min_rates_py
from repro.netsim.incremental import IncrementalMaxMin
from repro.netsim.vectorized import (
    HAVE_NUMPY,
    SOLVER_BACKENDS,
    make_solver,
)

if HAVE_NUMPY:
    from repro.netsim.vectorized import VectorizedMaxMin

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy backend unavailable")

REL = 1e-9
ABS = 1e-9


def assert_same_rates(got, want):
    assert set(got) == set(want)
    for flow_id in want:
        if math.isinf(want[flow_id]):
            assert math.isinf(got[flow_id]), flow_id
        else:
            assert got[flow_id] == pytest.approx(
                want[flow_id], rel=REL, abs=ABS), flow_id


def assert_matches_exact(solver, flows, links, caps):
    assert_same_rates(solver.rates(),
                      max_min_rates_py(flows, links, caps))


class TestBackendSelection:
    def test_make_solver_knob(self):
        caps = {"l": 1.0}
        assert isinstance(make_solver(caps, "incremental"),
                          IncrementalMaxMin)
        assert isinstance(make_solver(caps, "vectorized"),
                          VectorizedMaxMin)
        # auto prefers numpy when importable (it is, in this test).
        assert isinstance(make_solver(caps, "auto"), VectorizedMaxMin)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown solver backend"):
            make_solver({"l": 1.0}, "turbo")

    def test_backends_tuple_is_the_knob_vocabulary(self):
        assert set(SOLVER_BACKENDS) == {"auto", "vectorized",
                                        "incremental"}


class TestBasics:
    def test_empty(self):
        solver = VectorizedMaxMin({"l": 10.0})
        assert dict(solver.rates()) == {}
        assert len(solver) == 0

    def test_single_flow_gets_full_link(self):
        solver = VectorizedMaxMin({"l": 10.0})
        solver.add_flow("f", ["l"])
        assert solver.rate("f") == pytest.approx(10.0)
        assert "f" in solver

    def test_classic_three_flow_example(self):
        solver = VectorizedMaxMin({"l1": 10.0, "l2": 6.0})
        solver.add_flow("a", ["l1"])
        solver.add_flow("b", ["l1", "l2"])
        solver.add_flow("c", ["l2"])
        rates = solver.rates()
        assert rates["b"] == pytest.approx(3.0)
        assert rates["c"] == pytest.approx(3.0)
        assert rates["a"] == pytest.approx(7.0)

    def test_removal_redistributes(self):
        solver = VectorizedMaxMin({"l": 9.0})
        for fid in ("a", "b", "c"):
            solver.add_flow(fid, ["l"])
        assert solver.rate("a") == pytest.approx(3.0)
        solver.remove_flow("b")
        rates = solver.rates()
        assert rates["a"] == pytest.approx(4.5)
        assert "b" not in rates

    def test_survivor_on_a_finite_level_link_rises(self):
        """The counterexample to skipping a visit by the water-fill
        share alone: the link's recorded level is 1, so the survivor
        at 1 must join the region although the share left to the new
        flow is 2.  Skipping that visit leaves the survivor at 1 and
        gives the new flow 2."""
        solver = VectorizedMaxMin({"l": 3.0})
        for fid in ("a", "b", "c"):
            solver.add_flow(fid, ["l"])
        assert dict(solver.rates()) == {"a": 1.0, "b": 1.0, "c": 1.0}
        before = solver.stats.flows_resolved
        solver.remove_flow("a")
        solver.remove_flow("b")
        solver.add_flow("d", ["l"])
        assert dict(solver.rates()) == {"c": 1.5, "d": 1.5}
        assert_matches_exact(solver, {"c": ["l"], "d": ["l"]},
                             {"l": 3.0}, {})
        # The survivor and the new flow were both re-solved.
        assert solver.stats.flows_resolved - before == 2

    def test_rate_cap_binds(self):
        solver = VectorizedMaxMin({"l": 10.0})
        solver.add_flow("a", ["l"], rate_cap=2.0)
        solver.add_flow("b", ["l"])
        rates = solver.rates()
        assert rates["a"] == pytest.approx(2.0)
        assert rates["b"] == pytest.approx(8.0)

    def test_linkless_flow_unbounded_or_capped(self):
        solver = VectorizedMaxMin({})
        solver.add_flow("free", [])
        solver.add_flow("capped", [], rate_cap=3.0)
        rates = solver.rates()
        assert math.isinf(rates["free"])
        assert rates["capped"] == pytest.approx(3.0)

    def test_repeated_link_charged_once(self):
        solver = VectorizedMaxMin({"l": 10.0})
        solver.add_flow("f", ["l", "l"])
        assert solver.rate("f") == pytest.approx(10.0)

    def test_set_capacity_down_and_up(self):
        solver = VectorizedMaxMin({"l": 10.0})
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
        solver = VectorizedMaxMin({"l": 1.0})
        solver.add_flow("f", ["l"])
        with pytest.raises(ValueError):
            solver.add_flow("f", ["l"])

    def test_unknown_link_rejected(self):
        solver = VectorizedMaxMin({"l": 1.0})
        with pytest.raises(KeyError):
            solver.add_flow("f", ["nope"])
        with pytest.raises(KeyError):
            solver.set_capacity("nope", 1.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            VectorizedMaxMin({"l": -1.0})
        solver = VectorizedMaxMin({"l": 1.0})
        with pytest.raises(ValueError):
            solver.set_capacity("l", -2.0)

    def test_slot_and_rates_array_view(self):
        solver = VectorizedMaxMin({"l": 6.0})
        s_a = solver.add_flow("a", ["l"])
        s_b = solver.add_flow("b", ["l"])
        assert s_a != s_b
        vec = solver.rates_array()
        assert vec[s_a] == pytest.approx(3.0)
        assert vec[s_b] == pytest.approx(3.0)
        solver.remove_flow("a")
        solver.rates()
        assert solver.rates_array()[s_a] == 0.0

    def test_edge_compaction_preserves_allocation(self):
        """A reroute storm crosses the dead-edge compaction threshold;
        the allocation must stay exact throughout."""
        solver = VectorizedMaxMin({"l1": 8.0, "l2": 4.0})
        solver.add_flow("pin", ["l1", "l2"])
        for i in range(400):
            fid = f"f{i}"
            solver.add_flow(fid, ["l1", "l2"])
            solver.rates()
            solver.remove_flow(fid)
        rates = solver.rates()
        assert rates["pin"] == pytest.approx(4.0)
        assert len(solver) == 1


@pytest.mark.parametrize("backend", ["vectorized", "incremental"])
class TestCacheHits:
    """The dead solver-cache path, pinned: provably no-op perturbation
    batches must answer ``rates()`` from cache on both backends (the
    counter behind ``netsim.solver.cache_hits``)."""

    def test_clean_state_rates_hits_cache(self, backend):
        solver = make_solver({"l": 10.0}, backend)
        solver.add_flow("f", ["l"])
        solver.rates()
        solves = solver.stats.solves
        solver.rates()
        solver.rates()
        assert solver.stats.solves == solves
        assert solver.stats.cache_hits >= 2

    def test_same_value_set_capacity_is_noop(self, backend):
        solver = make_solver({"l": 10.0}, backend)
        solver.add_flow("f", ["l"])
        solver.rates()
        solves = solver.stats.solves
        hits = solver.stats.cache_hits
        solver.set_capacity("l", 10.0)
        solver.rates()
        assert solver.stats.solves == solves
        assert solver.stats.cache_hits == hits + 1

    def test_add_then_remove_in_one_batch_cancels(self, backend):
        solver = make_solver({"l": 10.0}, backend)
        solver.add_flow("f", ["l"])
        solver.rates()
        solves = solver.stats.solves
        hits = solver.stats.cache_hits
        solver.add_flow("ghost", ["l"])
        solver.remove_flow("ghost")
        solver.rates()
        assert solver.stats.solves == solves
        assert solver.stats.cache_hits == hits + 1
        assert solver.rate("f") == pytest.approx(10.0)



@pytest.mark.parametrize("backend", ["vectorized", "incremental"])
@pytest.mark.parametrize("bad_cap", [-1.0, float("nan")])
def test_negative_or_nan_rate_cap_rejected(backend, bad_cap):
    """A negative cap used to come back as a negative rate from both
    warm solvers (the exact solver answers 0.0); a refused add must
    leave the solver as it was."""
    solver = make_solver({"l": 10.0}, backend)
    with pytest.raises(ValueError, match="rate cap"):
        solver.add_flow("a", ["l"], rate_cap=bad_cap)
    assert "a" not in solver
    solver.add_flow("a", ["l"], rate_cap=4.0)
    assert dict(solver.rates()) == {"a": 4.0}


@st.composite
def random_history(draw):
    """A capacity map plus a random op history over it (same shape as
    ``test_incremental.random_history``)."""
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
            cap = draw(st.floats(0.1, 50.0)) \
                if (not path or draw(st.booleans())) else None
            ops.append(("add", fid, path, cap))
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
            cap = draw(st.floats(0.1, 50.0)) \
                if (not path or draw(st.booleans())) else None
            ops.append(("reroute", fid, path, cap))
        elif kind == "capacity":
            link = draw(st.sampled_from(link_ids))
            value = draw(st.one_of(st.just(0.0), st.floats(0.5, 100.0)))
            ops.append(("capacity", link, value))
        else:
            ops.append(("solve",))
    return links, ops


def _apply(solver, op):
    if op[0] == "add":
        solver.add_flow(op[1], op[2], rate_cap=op[3])
    elif op[0] == "remove":
        solver.remove_flow(op[1])
    elif op[0] == "reroute":
        # The simulator moves a flow by leave + attach.
        solver.remove_flow(op[1])
        solver.add_flow(op[1], op[2], rate_cap=op[3])
    elif op[0] == "capacity":
        solver.set_capacity(op[1], op[2])


def _track(flows, caps, capacities, op):
    if op[0] == "add":
        flows[op[1]] = op[2]
        if op[3] is not None:
            caps[op[1]] = op[3]
    elif op[0] == "remove":
        del flows[op[1]]
        caps.pop(op[1], None)
    elif op[0] == "reroute":
        flows[op[1]] = op[2]
        caps.pop(op[1], None)
        if op[3] is not None:
            caps[op[1]] = op[3]
    elif op[0] == "capacity":
        capacities[op[1]] = op[2]


class TestPropertyBased:
    @given(random_history())
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_solver_throughout(self, history):
        """After every mutation batch, the vectorized allocation equals
        a from-scratch exact solve of the current instance."""
        links, ops = history
        capacities = dict(links)
        solver = VectorizedMaxMin(capacities)
        flows, caps = {}, {}
        for op in ops:
            if op[0] == "solve":
                assert_matches_exact(solver, flows, capacities, caps)
            else:
                _apply(solver, op)
                _track(flows, caps, capacities, op)
        assert_matches_exact(solver, flows, capacities, caps)

    @given(random_history())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_incremental_backend(self, history):
        """Both warm backends walk the same history and agree at every
        interleaved solve point -- the drop-in-replacement property the
        ``solver=`` knob relies on."""
        links, ops = history
        vec = VectorizedMaxMin(dict(links))
        inc = IncrementalMaxMin(dict(links))
        for op in ops:
            if op[0] == "solve":
                assert_same_rates(vec.rates(), inc.rates())
            else:
                _apply(vec, op)
                _apply(inc, op)
        assert_same_rates(vec.rates(), inc.rates())

    @given(random_history())
    @settings(max_examples=50, deadline=None)
    def test_no_link_overloaded_and_caps_respected(self, history):
        links, ops = history
        capacities = dict(links)
        solver = VectorizedMaxMin(capacities)
        flows, caps = {}, {}
        for op in ops:
            if op[0] != "solve":
                _apply(solver, op)
                _track(flows, caps, capacities, op)
        rates = solver.rates()
        for link, capacity in capacities.items():
            load = sum(rates[f] for f, path in flows.items()
                       if link in path)
            assert load <= capacity * (1 + 1e-6) + 1e-9
        for fid, cap in caps.items():
            assert rates[fid] <= cap * (1 + 1e-6)


def large_region_history():
    """A deterministic history whose re-solve regions pass a thousand
    flows, which the hypothesis histories (at most 30 ops) never reach:
    1,500 flows share one core link between 25 uplinks and 40
    downlinks, a third of them rate-capped; then a removal wave, a core
    capacity cut, a reroute off the core and the capacity restored."""
    links = {"core": 900.0}
    links.update({f"up{i}": 20.0 + 3.0 * i for i in range(25)})
    links.update({f"down{i}": 15.0 + 2.0 * i for i in range(40)})
    ops = []
    for i in range(1500):
        cap = 0.2 + 0.3 * (i % 11) if i % 3 == 0 else None
        ops.append(("add", f"f{i}",
                    [f"up{i % 25}", "core", f"down{i % 40}"], cap))
    ops.append(("solve",))
    ops.extend(("remove", f"f{i}") for i in range(0, 1500, 5))
    ops.append(("solve",))
    ops.append(("capacity", "core", 120.0))
    ops.append(("solve",))
    ops.append(("reroute", "f1", ["up1", "down1"], 4.0))
    ops.append(("solve",))
    ops.append(("capacity", "core", 900.0))
    ops.append(("solve",))
    return links, ops


def test_large_region_matches_exact_and_incremental():
    links, ops = large_region_history()
    capacities = dict(links)
    vec = VectorizedMaxMin(capacities)
    inc = IncrementalMaxMin(capacities)
    flows, caps = {}, {}
    regions = []
    for op in ops:
        if op[0] == "solve":
            before = vec.stats.flows_resolved
            assert_matches_exact(vec, flows, capacities, caps)
            assert_same_rates(vec.rates(), inc.rates())
            regions.append(vec.stats.flows_resolved - before)
        else:
            _apply(vec, op)
            _apply(inc, op)
            _track(flows, caps, capacities, op)
    # The cold solve and the warm one after the capacity cut both
    # refill more than a thousand flows in one region.
    assert regions[0] == 1500 and regions[2] > 1024, regions
