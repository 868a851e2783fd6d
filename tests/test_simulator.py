"""Tests for the flow-level simulator."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netsim.network import Link, Network
from repro.netsim.simulator import FlowSim, FlowSpec
from repro.netsim.vectorized import HAVE_NUMPY
from repro.obs import Tracer, tracing


def two_link_network():
    return Network([Link("l1", 10.0), Link("l2", 10.0)])


class TestFlowSpecValidation:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            FlowSpec("f", size=-1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            FlowSpec("f", size=1.0, start_time=-0.1)

    def test_nonpositive_cap_rejected(self):
        """Links bound every rate, so a flow takes no cap at all; the
        read-only ``rate_cap`` answers None."""
        with pytest.raises(TypeError):
            FlowSpec("f", size=1.0, rate_cap=0.0)
        with pytest.raises(TypeError):
            FlowSpec("f", 1.0, rate_cap=2.0)
        assert FlowSpec("f", 1.0).rate_cap is None

    @pytest.mark.parametrize("fields", [
        {"size": float("nan")},
        {"size": float("inf")},
        {"size": 1.0, "start_time": float("nan")},
        {"size": 1.0, "start_time": float("inf")},
    ])
    def test_non_finite_fields_rejected(self, fields):
        """``nan < 0`` is false, so these used to pass; a NaN-size flow
        then hung the numpy backend and stalled the incremental one."""
        with pytest.raises(ValueError):
            FlowSpec("f", **fields)

    def test_duplicate_flow_id_rejected(self):
        sim = FlowSim(two_link_network())
        sim.add_flow(FlowSpec("f", size=1.0, path=("l1",)))
        with pytest.raises(ValueError):
            sim.add_flow(FlowSpec("f", size=2.0, path=("l2",)))

    def test_unknown_link_rejected(self):
        sim = FlowSim(two_link_network())
        with pytest.raises(KeyError):
            sim.add_flow(FlowSpec("f", size=1.0, path=("nope",)))

    def test_unknown_child_rejected(self):
        sim = FlowSim(two_link_network())
        sim.add_flow(FlowSpec("f", size=1.0, path=("l1",), children=("ghost",)))
        with pytest.raises(KeyError):
            sim.run()

    def test_dependency_cycle_rejected(self):
        sim = FlowSim(two_link_network())
        sim.add_flow(FlowSpec("a", size=1.0, path=("l1",), children=("b",)))
        sim.add_flow(FlowSpec("b", size=1.0, path=("l2",), children=("a",)))
        with pytest.raises(ValueError):
            sim.run()


class TestSingleFlow:
    def test_fct_is_size_over_capacity(self):
        sim = FlowSim(two_link_network())
        sim.add_flow(FlowSpec("f", size=100.0, path=("l1",)))
        result = sim.run()
        assert result.records["f"].fct == pytest.approx(10.0)

    def test_start_time_offsets_completion_not_fct(self):
        sim = FlowSim(two_link_network())
        sim.add_flow(FlowSpec("f", size=100.0, path=("l1",), start_time=5.0))
        result = sim.run()
        record = result.records["f"]
        assert record.completion_time == pytest.approx(15.0)
        assert record.fct == pytest.approx(10.0)

    def test_zero_size_completes_instantly(self):
        sim = FlowSim(two_link_network())
        sim.add_flow(FlowSpec("f", size=0.0, path=("l1",), start_time=2.0))
        result = sim.run()
        assert result.records["f"].completion_time == pytest.approx(2.0)

    def test_empty_path_completes_instantly(self):
        sim = FlowSim(two_link_network())
        sim.add_flow(FlowSpec("f", size=100.0))
        result = sim.run()
        assert result.records["f"].fct == pytest.approx(0.0)


class TestSharing:
    def test_two_flows_share_fairly(self):
        sim = FlowSim(two_link_network())
        sim.add_flow(FlowSpec("a", size=100.0, path=("l1",)))
        sim.add_flow(FlowSpec("b", size=100.0, path=("l1",)))
        result = sim.run()
        # Each gets 5.0 B/s until both finish together at t=20.
        assert result.records["a"].fct == pytest.approx(20.0)
        assert result.records["b"].fct == pytest.approx(20.0)

    def test_short_flow_finishes_then_long_speeds_up(self):
        sim = FlowSim(two_link_network())
        sim.add_flow(FlowSpec("short", size=50.0, path=("l1",)))
        sim.add_flow(FlowSpec("long", size=150.0, path=("l1",)))
        result = sim.run()
        # Shared at 5 B/s until short drains at t=10; long then has 100
        # bytes left at 10 B/s -> finishes at t=20.
        assert result.records["short"].fct == pytest.approx(10.0)
        assert result.records["long"].fct == pytest.approx(20.0)

    def test_late_arrival_resolves_rates(self):
        sim = FlowSim(two_link_network())
        sim.add_flow(FlowSpec("early", size=100.0, path=("l1",)))
        sim.add_flow(FlowSpec("late", size=50.0, path=("l1",), start_time=5.0))
        result = sim.run()
        # early drains 50 bytes alone by t=5, then both share at 5 B/s:
        # each has exactly 50 bytes left, so both finish at t=15.
        assert result.records["late"].completion_time == pytest.approx(15.0)
        assert result.records["early"].completion_time == pytest.approx(15.0)

    def test_disjoint_paths_do_not_interact(self):
        sim = FlowSim(two_link_network())
        sim.add_flow(FlowSpec("a", size=100.0, path=("l1",)))
        sim.add_flow(FlowSpec("b", size=100.0, path=("l2",)))
        result = sim.run()
        assert result.records["a"].fct == pytest.approx(10.0)
        assert result.records["b"].fct == pytest.approx(10.0)


class TestDependencies:
    def test_parent_admitted_after_child_drains(self):
        sim = FlowSim(two_link_network())
        sim.add_flow(FlowSpec("child", size=100.0, path=("l1",)))
        sim.add_flow(FlowSpec(
            "parent", size=10.0, path=("l2",), children=("child",)
        ))
        result = sim.run()
        parent = result.records["parent"]
        # Parent starts only when the child drains (t=10): an aggregate
        # cannot be forwarded before its input arrived.
        assert parent.admitted_time == pytest.approx(10.0)
        assert parent.completion_time == pytest.approx(11.0)
        # Its own FCT is just its transfer time; the wait is separate.
        assert parent.fct == pytest.approx(1.0)
        assert parent.admitted_time - parent.spec.start_time == \
            pytest.approx(10.0)

    def test_dependency_chains_serialise(self):
        sim = FlowSim(two_link_network())
        sim.add_flow(FlowSpec("leaf", size=100.0, path=("l1",)))
        sim.add_flow(FlowSpec("mid", size=1.0, path=("l2",), children=("leaf",)))
        sim.add_flow(FlowSpec("root", size=1.0, path=("l2",), children=("mid",)))
        result = sim.run()
        # 10s for the leaf, then 0.1s per downstream hop.
        assert result.records["root"].completion_time == pytest.approx(10.2)
        assert result.records["root"].fct == pytest.approx(0.1)

    def test_long_chain_registered_parent_first(self):
        """The dependency check walks a 5,000-flow chain registered
        parent-first (the deepest walk it can get) without recursing,
        and the chain drains one flow after another."""
        n = 5000
        sim = FlowSim(Network([Link("l", 10.0)]))
        for i in reversed(range(n)):
            sim.add_flow(FlowSpec(f"c{i}", size=10.0, path=("l",),
                                  children=(f"c{i - 1}",) if i else ()))
        result = sim.run()
        assert result.records[f"c{n - 1}"].admitted_time == n - 1
        assert result.end_time == n

    def test_blocked_flow_ignores_own_start_time_once_armed(self):
        sim = FlowSim(two_link_network())
        sim.add_flow(FlowSpec("child", size=100.0, path=("l1",)))
        sim.add_flow(FlowSpec(
            "parent", size=10.0, path=("l2",), start_time=20.0,
            children=("child",),
        ))
        result = sim.run()
        # Admission waits for both the start time and the children.
        assert result.records["parent"].admitted_time == pytest.approx(20.0)

    def test_job_completion_time_is_last_flow(self):
        sim = FlowSim(two_link_network())
        sim.add_flow(FlowSpec("a", size=50.0, path=("l1",), job_id="j"))
        sim.add_flow(FlowSpec("b", size=100.0, path=("l2",), job_id="j"))
        result = sim.run()
        assert max(r.completion_time for r in result.records.values()
                   if r.spec.job_id == "j") == pytest.approx(10.0)


class TestAccounting:
    def test_link_bytes_equal_flow_sizes(self):
        sim = FlowSim(two_link_network())
        sim.add_flow(FlowSpec("a", size=70.0, path=("l1",)))
        sim.add_flow(FlowSpec("b", size=30.0, path=("l1", "l2")))
        result = sim.run()
        traffic = result.link_traffic()
        assert traffic["l1"] == pytest.approx(100.0)
        assert traffic["l2"] == pytest.approx(30.0)

    def test_fct_filters(self):
        sim = FlowSim(two_link_network())
        sim.add_flow(FlowSpec("w", size=10.0, path=("l1",), kind="worker",
                              aggregatable=True))
        sim.add_flow(FlowSpec("bg", size=10.0, path=("l2",)))
        result = sim.run()
        assert len(result.fcts()) == 2
        assert len(result.fcts(kinds=("worker",))) == 1
        assert len(result.fcts(aggregatable=False)) == 1


class TestConservationProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(1.0, 1000.0),   # size
                st.floats(0.0, 5.0),      # start time
                st.booleans(),            # uses l1
                st.booleans(),            # uses l2
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_fct_at_least_ideal_transfer_time(self, flow_rows):
        net = Network([Link("l1", 7.0), Link("l2", 13.0)])
        sim = FlowSim(net)
        for i, (size, start, use1, use2) in enumerate(flow_rows):
            path = tuple(
                l for l, used in (("l1", use1), ("l2", use2)) if used
            )
            sim.add_flow(FlowSpec(f"f{i}", size=size, start_time=start,
                                  path=path))
        result = sim.run()
        for i, (size, start, use1, use2) in enumerate(flow_rows):
            record = result.records[f"f{i}"]
            bottleneck = min(
                [7.0] * use1 + [13.0] * use2 + [float("inf")]
            )
            ideal = size / bottleneck if bottleneck != float("inf") else 0.0
            assert record.fct >= ideal - 1e-6

    @given(st.lists(st.floats(1.0, 100.0), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_single_link_completion_is_total_bytes(self, sizes):
        """With one shared link, the last completion equals total/capacity
        (work conservation of max-min sharing)."""
        net = Network([Link("l", 10.0)])
        sim = FlowSim(net)
        for i, size in enumerate(sizes):
            sim.add_flow(FlowSpec(f"f{i}", size=size, path=("l",)))
        result = sim.run()
        assert result.end_time == pytest.approx(sum(sizes) / 10.0)


class TestSolverBackends:
    """The ``solver=`` knob swaps the max-min backend without changing
    any observable simulation outcome."""

    def _workload(self):
        network = Network([Link("core", 10.0), Link("edge_a", 6.0),
                           Link("edge_b", 4.0)])
        specs = [
            FlowSpec("f1", size=30.0, path=("edge_a", "core")),
            FlowSpec("f2", size=20.0, path=("edge_b", "core"),
                     start_time=1.0),
            FlowSpec("f3", size=12.0, path=("core",), start_time=2.0),
            FlowSpec("f4", size=8.0, path=("edge_a",), start_time=0.5,
                     children=("f5",)),
            FlowSpec("f5", size=5.0, path=("edge_b",)),
        ]
        return network, specs

    def _run(self, solver):
        network, specs = self._workload()
        sim = FlowSim(network, solver=solver)
        for spec in specs:
            sim.add_flow(spec)
        result = sim.run()
        return {fid: round(record.fct, 9)
                for fid, record in result.records.items()}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown solver backend"):
            FlowSim(two_link_network(), solver="bogus")

    def test_backends_agree_on_completion_times(self):
        pytest.importorskip("numpy")
        incremental = self._run("incremental")
        vectorized = self._run("vectorized")
        assert incremental == vectorized

    def test_auto_matches_incremental(self):
        assert self._run("auto") == self._run("incremental")

    def test_storage_follows_the_solver_even_when_traced(self, monkeypatch):
        """A traced fig06 run keeps the array-backed transfer state on
        a numpy host (tracing reads through the seam, it does not pick
        the storage)."""
        from repro.experiments import QUICK, load
        from repro.netsim import simulator

        seen = set()

        def spy(solver, specs):
            state = real(solver, specs)
            seen.add(type(state).__name__)
            return state

        real = simulator.transfer_state
        monkeypatch.setattr(simulator, "transfer_state", spy)
        with tracing(Tracer()):
            load("fig06_fct_cdf").run(scale=QUICK, seed=1)
        assert seen == {"_ArrayTransfers" if HAVE_NUMPY
                        else "_DictTransfers"}


_LINKS = ("l0", "l1", "l2", "l3")
_GRID = st.integers(0, 12).map(lambda k: k * 0.5)


def _paths(hops):
    """Loop-free paths of exactly ``hops`` links over ``_LINKS``."""
    return st.permutations(range(len(_LINKS))).map(
        lambda order: tuple(order[:hops]))


@st.composite
def fault_cases(draw):
    """A small flow DAG plus link outages and reroutes, as plain tuples
    (so the edge cases below can be spelled out with ``@example``).

    Times sit on a coarse grid so admissions, outages and reroutes
    collide; every outage ends with a recovery, so no run stalls for
    good; reroutes keep a flow's hop count, which keeps the total-bytes
    invariant checkable.
    """
    caps = tuple(draw(st.lists(st.sampled_from([2.0, 4.0, 5.0, 10.0]),
                               min_size=len(_LINKS), max_size=len(_LINKS))))
    flows = []
    for i in range(draw(st.integers(1, 7))):
        hops = draw(st.integers(0, 3))
        children = tuple(draw(st.sets(st.integers(0, i - 1), max_size=2))) \
            if i else ()
        flows.append((
            float(draw(st.integers(0, 40))), draw(_paths(hops)),
            draw(_GRID), tuple(sorted(children)),
        ))
    outages = tuple(draw(st.lists(st.tuples(
        st.integers(0, len(_LINKS) - 1), _GRID,
        st.integers(1, 8).map(lambda k: k * 0.5),
        st.sampled_from([2.0, 5.0, 10.0])), max_size=3)))
    reroutes = []
    for _ in range(draw(st.integers(0, 3))):
        flow = draw(st.integers(0, len(flows) - 1))
        reroutes.append((draw(_GRID), flow,
                         draw(_paths(len(flows[flow][1])))))
    return caps, tuple(flows), outages, tuple(reroutes)


def faulted_sim(case, sim_class=FlowSim, solver="auto"):
    """A ``sim_class`` (``FlowSim`` or a class built like it) loaded
    with one :func:`fault_cases` case, ready to run."""
    caps, flows, outages, reroutes = case
    network = Network([Link(l, c) for l, c in zip(_LINKS, caps)])
    sim = sim_class(network, solver=solver)
    for i, (size, path, start, children) in enumerate(flows):
        sim.add_flow(FlowSpec(
            f"f{i}", size=size, path=tuple(_LINKS[l] for l in path),
            start_time=start,
            children=tuple(f"f{c}" for c in children)))
    for link, down, duration, restored in outages:
        sim.add_capacity_event(down, _LINKS[link], 0.0)
        sim.add_capacity_event(down + duration, _LINKS[link], restored)
    for when, flow, path in reroutes:
        sim.add_reroute_event(when, f"f{flow}",
                              tuple(_LINKS[l] for l in path))
    return sim


#: A flow admitted (t=1) onto a link that is already down (0..3).
ADMITTED_ONTO_DOWN_LINK = (
    (10.0, 10.0, 10.0, 10.0),
    ((20.0, (0, 1), 1.0, ()),
     (10.0, (1,), 0.0, ())),
    ((0, 0.0, 3.0, 5.0),), ())

#: A stalled flow (l0 down 1..6) rerouted onto live links at t=2, and a
#: second one rerouted onto another down link.
STALLED_FLOWS_REROUTED = (
    (10.0, 10.0, 10.0, 10.0),
    ((40.0, (0,), 0.0, ()),
     (40.0, (0, 1), 0.0, ()),
     (5.0, (2,), 0.5, (0,))),
    ((0, 1.0, 5.0, 10.0), (3, 1.5, 2.0, 2.0)),
    ((2.0, 0, (2,)), (2.0, 1, (3, 1))))


class TestFaultedRunsAgreeAcrossBackendsAndTracing:
    """``FlowSim`` differential oracle: the same faulted flow DAG run
    under every solver backend, traced and untraced, gives one answer.
    Covers what ``TestSolverBackends`` does not: stalls, recoveries and
    reroutes, and the storage the traced loop uses."""

    BACKENDS = ("vectorized", "incremental") if HAVE_NUMPY \
        else ("incremental",)

    @staticmethod
    def _run(case, solver, traced):
        sim = faulted_sim(case, solver=solver)
        if traced:
            with tracing(Tracer()):
                result = sim.run()
        else:
            result = sim.run()
        times = {fid: (r.admitted_time, r.drain_time)
                 for fid, r in result.records.items()}
        return times, result.link_traffic()

    def _check(self, case):
        _, flows, _, reroutes = case
        runs = {(solver, traced): self._run(case, solver, traced)
                for solver in self.BACKENDS for traced in (False, True)}
        for solver in self.BACKENDS:
            assert runs[solver, True] == runs[solver, False]
        ref_times, ref_bytes = runs[self.BACKENDS[-1], False]
        for times, link_bytes in runs.values():
            for fid, (admitted, drained) in times.items():
                assert admitted == pytest.approx(ref_times[fid][0],
                                                 rel=1e-9, abs=1e-9)
                assert drained == pytest.approx(ref_times[fid][1],
                                                rel=1e-9, abs=1e-9)
            assert link_bytes == pytest.approx(ref_bytes, rel=1e-9, abs=1e-9)
            # Bytes are conserved: a flow charges its size once per hop
            # (reroutes keep the hop count), and a never-rerouted flow
            # charges exactly the links of its one path.
            assert sum(link_bytes.values()) == pytest.approx(
                sum(size * len(path) for size, path, *_ in flows),
                rel=1e-9, abs=1e-9)
            moved = {flow for _, flow, _ in reroutes}
            for l, link in enumerate(_LINKS):
                fixed = sum(size for i, (size, path, *_) in enumerate(flows)
                            if i not in moved and l in path)
                assert link_bytes[link] >= fixed - 1e-9 * max(1.0, fixed)

    @settings(max_examples=150, deadline=None)
    @given(case=fault_cases())
    @example(case=ADMITTED_ONTO_DOWN_LINK)
    @example(case=STALLED_FLOWS_REROUTED)
    def test_faulted_dag(self, case):
        self._check(case)
