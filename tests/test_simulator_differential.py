"""Differential oracle for the flow simulator's run loop.

``_FrozenFlowSim`` holds a verbatim copy of ``FlowSim.run`` and the
helpers it calls (the link-utilization sampler, the dependency check,
the byte accounting and the end-of-run traffic instants) as they stood
while ``run`` was one method of nested closures.  It registers flows
and fault events through the live ``FlowSim`` methods, so the only code
that differs between the two is the run loop.

Hypothesis drives both with the same faulted flow DAGs
(``tests/test_simulator.py``'s ``fault_cases``, with its ``@example``
edge cases) and the same chaos Layer 3 runs
(``tests/test_chaos_invariants.py``'s ``sim_scenario``), under every
available solver backend, traced and untraced.  The two must agree bit
for bit: the same ``admitted_time`` and ``drain_time`` per flow, the
same ``link_traffic()``, the same ``netsim.*`` counter deltas and, when
traced, the same tracer record list -- flow and epoch spans, the
``netsim.active_flows`` and ``link.util:*`` samples, the capacity and
reroute instants and the ``link.traffic`` instants, in ``seq`` order.
Both run in one process, so the comparison needs no digest.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netsim._transfer import transfer_state
from repro.netsim.network import Link, Network
from repro.netsim.simulator import (
    CapacityEvent,
    FlowRecord,
    FlowSim,
    FlowSpec,
    RerouteEvent,
    SimulationResult,
)
from repro.netsim.vectorized import HAVE_NUMPY, make_solver
from repro.obs import LINK_UTIL_PREFIX, METRICS, Tracer, get_tracer, tracing
from repro.units import EPSILON
from tests.nets import network_of
from tests.test_chaos_invariants import chaos_sim, sim_scenario
from tests.test_simulator import (
    ADMITTED_ONTO_DOWN_LINK,
    STALLED_FLOWS_REROUTED,
    fault_cases,
    faulted_sim,
)

BACKENDS = ("vectorized", "incremental") if HAVE_NUMPY else ("incremental",)

_SOLVER_METRICS = (
    ("solves", "netsim.solver.solves"),
    ("cache_hits", "netsim.solver.cache_hits"),
    ("components_resolved", "netsim.solver.components_resolved"),
    ("flows_resolved", "netsim.solver.flows_resolved"),
    ("flows_reused", "netsim.solver.flows_reused"),
)


class _FrozenLinkUtilSampler:
    """Per-link utilization counter tracks of one traced run.

    A sample at ``now`` holds the link's allocated-bandwidth fraction
    for the epoch starting at ``now`` (piecewise-constant until the
    next sample on the same track).  Samples are emitted on change
    only, optionally rate-limited per link by ``period``; the timeline
    analyzer integrates these tracks into busy fractions and
    utilization percentiles.
    """

    def __init__(self, network: Network, period: Optional[float]) -> None:
        self._wire_ids = tuple(l.link_id for l in network.wire_links())
        self._period = period
        self._last_util: Dict[str, float] = {}
        self._last_sampled: Dict[str, float] = {}

    def sample(self, tracer, now: float,
               rates: Iterable[Tuple[str, float]],
               paths: Dict[str, Tuple[str, ...]],
               capacities: Dict[str, float]) -> None:
        """Emit this epoch's samples; ``rates`` is (flow id, rate) for
        the flows in the rate solve."""
        used: Dict[str, float] = {}
        for flow_id, rate in rates:
            if rate <= 0.0 or rate == float("inf"):
                continue
            for link_id in paths[flow_id]:
                used[link_id] = used.get(link_id, 0.0) + rate
        last_util, last_sampled = self._last_util, self._last_sampled
        for link_id in self._wire_ids:
            cap = capacities.get(link_id, 0.0)
            util = (used.get(link_id, 0.0) / cap) if cap > 0 else 0.0
            previous = last_util.get(link_id)
            if previous is not None and abs(util - previous) <= 1e-12:
                continue
            if self._period and link_id in last_sampled \
                    and now - last_sampled[link_id] < self._period:
                continue
            last_util[link_id] = util
            last_sampled[link_id] = now
            tracer.sample(LINK_UTIL_PREFIX + link_id, now, util,
                          layer="netsim")


class _FrozenFlowSim(FlowSim):
    """``FlowSim.run`` and its helpers, verbatim, over the live
    registration methods."""

    #: The sampler's throttle; no caller ever set it.
    _link_sample_period: Optional[float] = None

    def run(self) -> SimulationResult:
        """Run to completion and return per-flow records.

        One max-min solver lives for the whole run: admissions,
        completions, capacity changes and reroutes mutate it, and every
        event that lands on one virtual timestamp is coalesced into a
        single rate epoch (one solver consult; ``netsim.events`` counts
        the individual events, ``netsim.epochs`` the consults).  Each
        epoch is: apply due fault events, admit due flows, ask the
        transfer state when the next flow drains, advance to the
        earliest of that / the next admission / the next fault event,
        and record whoever finished.  Flows whose path crosses a down
        link are stalled (out of the solve) via a per-link index rather
        than a per-epoch scan.
        """
        self._validate_dependencies()
        METRICS.counter("netsim.runs").inc()
        METRICS.counter("netsim.flows").inc(len(self._specs))
        n_events = 0   # admissions + completions + fault events applied
        n_epochs = 0   # rate epochs (one solver consult each)
        specs = self._specs
        tracer = get_tracer()
        traced = tracer.enabled
        capacities = dict(self._network.capacities())
        solver = make_solver(capacities, self._solver_backend)
        state = transfer_state(solver, specs)
        run_span = tracer.begin(
            "flowsim.run", 0.0, layer="netsim",
            flows=len(specs), links=len(capacities),
            strategy=self._label,
        ) if traced else 0
        sampler = _FrozenLinkUtilSampler(
            self._network, self._link_sample_period) if traced else None
        #: Current path per flow; reroute events replace entries.
        paths: Dict[str, Tuple[str, ...]] = {
            flow_id: spec.path for flow_id, spec in specs.items()
        }
        #: Bytes already charged to a (previous) path per rerouted flow.
        accounted: Dict[str, float] = {}

        # Fault events in time order; the sort is stable, so capacity
        # changes precede reroutes at equal times, then insertion order.
        events: List[object] = sorted(
            self._cap_events + self._reroute_events, key=lambda e: e.when)
        event_i = 0

        # Dependency bookkeeping: a flow is *armed* once every child has
        # drained; an armed flow is admitted at max(start_time, arm time).
        blockers: Dict[str, int] = {}
        dependents: Dict[str, List[str]] = {}
        pending: List[Tuple[float, str]] = []
        for flow_id, spec in specs.items():
            blockers[flow_id] = len(spec.children)
            for child in spec.children:
                dependents.setdefault(child, []).append(flow_id)
            if not spec.children:
                heapq.heappush(pending, (spec.start_time, flow_id))
        records: Dict[str, FlowRecord] = {}
        now = 0.0

        #: Links currently at zero capacity, and the per-link index of
        #: transferring flows used to find who a capacity or reroute
        #: event touches without scanning every active flow.
        down_links: Set[str] = {
            link_id for link_id, cap in capacities.items() if cap <= 0.0
        }
        link_flows: Dict[str, Set[str]] = {}

        def is_up(path: Sequence[str]) -> bool:
            return not (down_links and any(l in down_links for l in path))

        def attach(flow_id: str) -> None:
            """Index a transferring flow by link; it enters the rate
            solve unless its path crosses a down link."""
            path = paths[flow_id]
            for link_id in set(path):
                link_flows.setdefault(link_id, set()).add(flow_id)
            if is_up(path):
                state.enter(flow_id, path)

        def unindex(flow_id: str) -> None:
            for link_id in set(paths[flow_id]):
                link_flows[link_id].discard(flow_id)

        def drain(flow_id: str, when: float, admitted: float) -> None:
            nonlocal n_events
            n_events += 1
            spec = specs[flow_id]
            records[flow_id] = FlowRecord(
                spec=spec, drain_time=when, admitted_time=admitted)
            if traced:
                # One completed span per flow over its transfer window
                # [admitted, drained].  Flows overlap freely, so they
                # live on their own layer row (outside the LIFO stack)
                # and link to the run span explicitly.  The tags carry
                # the request/job DAG (children, path) the critical-path
                # extractor reconstructs.
                tracer.complete(
                    "flow", admitted, when, layer="netsim.flow",
                    parent_id=run_span,
                    flow=flow_id, job=spec.job_id or "", kind=spec.kind,
                    size=spec.size, wait=admitted - spec.start_time,
                    path="|".join(paths[flow_id]),
                    children="|".join(spec.children),
                )
            for parent in dependents.get(flow_id, ()):
                blockers[parent] -= 1
                if blockers[parent] == 0:
                    start = max(specs[parent].start_time, when)
                    heapq.heappush(pending, (start, parent))

        def admit(until: float) -> None:
            """Admit armed flows whose admission time has arrived."""
            nonlocal n_events
            while pending and pending[0][0] <= until + EPSILON:
                when, flow_id = heapq.heappop(pending)
                n_events += 1
                spec = specs[flow_id]
                admitted = max(when, spec.start_time)
                if spec.size <= 0 or (not paths[flow_id] and
                                      spec.rate_cap is None):
                    drain(flow_id, admitted, admitted)
                else:
                    records[flow_id] = FlowRecord(
                        spec=spec, drain_time=float("nan"),
                        admitted_time=admitted,
                    )
                    state.admit(flow_id)
                    attach(flow_id)

        def apply_capacity(event: CapacityEvent) -> None:
            link_id = event.link_id
            old = capacities[link_id]
            if traced:
                tracer.instant("capacity", event.when, layer="netsim",
                               link=link_id, capacity=event.capacity)
            if old == event.capacity:
                return
            capacities[link_id] = event.capacity
            solver.set_capacity(link_id, event.capacity)
            if event.capacity <= 0.0 < old:
                down_links.add(link_id)
                # Flows crossing the downed link stall: they keep
                # their place but leave the rate solve.
                for fid in link_flows.get(link_id, ()):
                    if not state.is_stalled(fid):
                        state.leave(fid)
            elif old <= 0.0 < event.capacity:
                down_links.discard(link_id)
                for fid in sorted(link_flows.get(link_id, ())):
                    if state.is_stalled(fid) and is_up(paths[fid]):
                        state.enter(fid, paths[fid])

        def apply_reroute(event: RerouteEvent) -> None:
            flow_id = event.flow_id
            if traced:
                tracer.instant("reroute", event.when, layer="netsim",
                               flow=flow_id, hops=len(event.path))
            if flow_id in state:
                # Charge what transferred so far to the old path.
                moved = specs[flow_id].size - state.remaining(flow_id)
                delta = moved - accounted.get(flow_id, 0.0)
                if delta > 0:
                    for link_id in paths[flow_id]:
                        self._network.account(link_id, delta)
                    accounted[flow_id] = moved
                unindex(flow_id)
                if not state.is_stalled(flow_id):
                    state.leave(flow_id)
                paths[flow_id] = event.path
                attach(flow_id)
            elif flow_id not in records:
                paths[flow_id] = event.path  # not admitted yet
            # else: already drained; nothing left to move

        while pending or state:
            if not state:
                wake = pending[0][0]
                if event_i < len(events):
                    wake = min(wake, events[event_i].when)
                now = max(now, wake)
            while event_i < len(events) and \
                    events[event_i].when <= now + EPSILON:
                event = events[event_i]
                event_i += 1
                n_events += 1
                if isinstance(event, CapacityEvent):
                    apply_capacity(event)
                else:
                    apply_reroute(event)
            admit(now)
            if not state:
                continue

            # One solver consult covers every admission, completion and
            # fault event applied at this instant; a clean solver
            # answers straight from its cache.
            n_epochs += 1
            dt = min(
                state.next_completion(),
                (pending[0][0] - now) if pending else float("inf"),
                (events[event_i].when - now)
                if event_i < len(events) else float("inf"),
            )
            if dt == float("inf"):
                detail = ""
                if state.n_stalled:
                    detail = (
                        f" ({state.n_stalled} flow(s) stuck on down links "
                        "with no recovery or reroute scheduled)"
                    )
                raise RuntimeError(
                    "simulation stalled: active flows make no progress"
                    + detail
                )
            dt = max(dt, 0.0)

            if traced:
                epoch_span = tracer.begin(
                    "epoch", now, layer="netsim",
                    active=len(state) - state.n_stalled,
                    stalled=state.n_stalled,
                )
                tracer.sample("netsim.active_flows", now,
                              float(len(state)), layer="netsim")
                sampler.sample(tracer, now, state.moving_rates(), paths,
                               capacities)
                tracer.end(epoch_span, now + dt)
            now += dt
            for flow_id in state.advance(dt):
                unindex(flow_id)
                drain(flow_id, now, records[flow_id].admitted_time)
        METRICS.counter("netsim.events").inc(n_events)
        METRICS.counter("netsim.epochs").inc(n_epochs)
        for attr, name in _SOLVER_METRICS:
            METRICS.counter(name).inc(getattr(solver.stats, attr))

        if len(records) != len(specs):
            missing = sorted(set(specs) - set(records))
            raise RuntimeError(f"flows never became eligible: {missing}")
        self._account_traffic(paths, accounted)
        end_time = max(
            (r.completion_time for r in records.values()), default=0.0
        )
        if traced:
            self._trace_link_traffic(tracer, capacities, end_time)
            tracer.end(run_span, end_time)
        return SimulationResult(records=records, network=self._network,
                                end_time=end_time)

    # -- internals ---------------------------------------------------------

    def _trace_link_traffic(self, tracer, capacities: Dict[str, float],
                            end_time: float) -> None:
        """One ``link.traffic`` instant per physical link: how much of
        its capacity-time the run used (Fig. 9's "where do the bytes
        go" view, directly in the trace)."""
        for link in self._network.wire_links():
            busy = capacities.get(link.link_id, 0.0) * end_time
            tracer.instant(
                "link.traffic", end_time, layer="netsim",
                link=link.link_id, bytes=link.bytes_carried,
                utilization=(link.bytes_carried / busy
                             if busy > 0 else 0.0),
            )

    def _validate_dependencies(self) -> None:
        state: Dict[str, int] = {}  # 0 = visiting, 1 = done

        def visit(flow_id: str) -> None:
            mark = state.get(flow_id)
            if mark == 1:
                return
            if mark == 0:
                raise ValueError(f"dependency cycle through flow {flow_id!r}")
            state[flow_id] = 0
            spec = self._specs.get(flow_id)
            if spec is None:
                raise KeyError(f"unknown child flow {flow_id!r}")
            for child in spec.children:
                visit(child)
            state[flow_id] = 1

        for flow_id in self._specs:
            visit(flow_id)

    def _account_traffic(self, paths: Dict[str, Tuple[str, ...]],
                         accounted: Dict[str, float]) -> None:
        """Charge each flow's bytes to the links that carried them.

        Total bytes per link do not depend on the rate schedule, so the
        accounting is exact and done once at the end.  For rerouted
        flows, bytes moved before the reroute were charged to the old
        path when the event fired; only the remainder lands here.
        """
        for flow_id, spec in self._specs.items():
            rest = spec.size - accounted.get(flow_id, 0.0)
            for link_id in paths[flow_id]:
                self._network.account(link_id, rest)


def _records(tracer: Tracer) -> List[tuple]:
    """Every span, instant and sample the tracer holds, in ``seq``
    order, as comparable tuples."""
    out = [(s.seq, "span", s.name, s.layer, s.start, s.end, s.parent_id,
            s.tags) for s in tracer.spans]
    out += [(i.seq, "instant", i.name, i.layer, i.at, i.tags)
            for i in tracer.instants]
    out += [(s.seq, "sample", s.name, s.layer, s.at, s.value)
            for s in tracer.samples]
    return sorted(out, key=lambda record: record[0])


def _outcome(sim, traced: bool):
    """What one run shows from outside: per-flow times, link bytes,
    ``netsim.*`` counter deltas and (traced) the record list -- or the
    exception it raised."""
    before = METRICS.snapshot("netsim.")
    tracer = Tracer() if traced else None
    try:
        with tracing(tracer):
            result = sim.run()
    except (KeyError, ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    after = METRICS.snapshot("netsim.")
    deltas = {name: value - before.get(name, 0)
              for name, value in after.items()}
    times = {fid: (r.admitted_time, r.drain_time)
             for fid, r in result.records.items()}
    return (times, result.link_traffic(), result.end_time, deltas,
            _records(tracer) if traced else None)


def _assert_same(build) -> None:
    """``build(sim_class, solver)`` twice per backend and tracing
    mode: the frozen and the live run loop must agree exactly."""
    for solver in BACKENDS:
        for traced in (False, True):
            frozen = _outcome(build(_FrozenFlowSim, solver), traced)
            live = _outcome(build(FlowSim, solver), traced)
            assert live == frozen, (solver, traced)


@settings(max_examples=150, deadline=None)
@given(case=fault_cases())
@example(case=ADMITTED_ONTO_DOWN_LINK)
@example(case=STALLED_FLOWS_REROUTED)
def test_faulted_dags_match_the_frozen_loop(case):
    _assert_same(lambda cls, solver: faulted_sim(case, cls, solver))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scenario=sim_scenario())
def test_chaos_runs_match_the_frozen_loop(scenario):
    _assert_same(lambda cls, solver: chaos_sim(scenario, cls, solver))


def test_a_stall_raises_the_same_error():
    """A flow stuck on a link that never recovers: both loops raise
    the same ``RuntimeError``."""
    def build(cls, solver):
        sim = cls(network_of([Link("l0", 10.0)]), solver=solver)
        sim.add_flow(FlowSpec("f0", size=50.0, path=("l0",)))
        sim.add_capacity_event(1.0, "l0", 0.0)
        return sim

    _assert_same(build)
    assert "stuck on down links" in _outcome(build(FlowSim, "auto"),
                                             False)[1]


@st.composite
def _dependency_graphs(draw):
    """Flows whose children are drawn from the registered ids plus two
    unknown ones, so cycles and unknown children both occur."""
    n = draw(st.integers(1, 8))
    ids = [f"f{i}" for i in range(n)]
    return [(fid, tuple(draw(st.lists(st.sampled_from(ids + ["x", "y"]),
                                      max_size=3, unique=True))))
            for fid in draw(st.permutations(ids))]


@settings(max_examples=300, deadline=None)
@given(graph=_dependency_graphs())
def test_dependency_errors_match_the_frozen_check(graph):
    """The same ``KeyError`` or ``ValueError`` (type and message) for
    any dependency graph, and the same run when it is valid."""
    def build(cls, solver):
        sim = cls(network_of([Link("l0", 10.0)]), solver=solver)
        for fid, children in graph:
            sim.add_flow(FlowSpec(fid, size=1.0, path=("l0",),
                                  children=children))
        return sim

    _assert_same(build)
