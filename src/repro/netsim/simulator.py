"""The flow-level simulator.

Flows are admitted at their start time, share link bandwidth max-min
fairly with all other active flows, and complete when their bytes drain.
Rates are re-solved at every arrival/completion event, which reproduces
the fluid limit of per-flow-fair TCP (what the paper's packet simulator
approximates).

**Aggregation trees.**  An on-path aggregation job is a tree of *segment
flows*: worker->box segments carry full partial results, box->box and
box->master segments carry α-scaled data.  A segment's ``children`` are
the flows it depends on: the segment is *admitted* (starts transferring)
only once every child has drained -- a box cannot forward an aggregate it
has not computed.  Per-flow FCT is the flow's own transfer time
(completion minus admission), matching how a packet-level simulator would
measure each flow; upstream waits serialise *job* completion without
contaminating downstream flows' FCTs.

Agg-box processing capacity appears as a virtual link on the path of each
segment *entering* the box, so a box shared by many segments rate-limits
them exactly like a wire would.

**Fault events.**  Two kinds of scheduled events let the fault-injection
layer (:mod:`repro.faults`) perturb a run deterministically:

- a :class:`CapacityEvent` changes a link's capacity at a virtual time;
  capacity ``0`` means *down* -- flows whose current path crosses a down
  link drop out of the max-min rate solve (they make no progress) until
  the link recovers or they are rerouted;
- a :class:`RerouteEvent` moves a flow's remaining bytes onto a new path
  (the §3.1 rewiring of segment flows around a failed agg box).  Bytes
  already transferred are accounted to the old path, the remainder to
  the new one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.netsim._transfer import transfer_state
from repro.netsim.network import Network
from repro.netsim.vectorized import HAVE_NUMPY, SOLVER_BACKENDS, make_solver
from repro.obs import LINK_UTIL_PREFIX, METRICS, get_tracer
from repro.units import EPSILON

#: Registry names the simulator writes (the ``netsim.*`` namespace).
_SOLVER_METRICS = (
    ("solves", "netsim.solver.solves"),
    ("cache_hits", "netsim.solver.cache_hits"),
    ("components_resolved", "netsim.solver.components_resolved"),
    ("flows_resolved", "netsim.solver.flows_resolved"),
    ("flows_reused", "netsim.solver.flows_reused"),
)


@dataclass(frozen=True)
class FlowSpec:
    """One flow to simulate.

    Attributes:
        flow_id: unique id.
        size: bytes to transfer (>= 0; zero-byte flows finish instantly).
        path: link ids traversed, in order.  May be empty for co-located
            endpoints (the flow then finishes instantly).
        start_time: virtual time at which the flow becomes active.
        job_id: optional grouping key (one partition/aggregation job).
        kind: free-form label -- the strategies use ``"worker"``,
            ``"internal"`` (box->box / relay hops), ``"result"`` (last hop
            into the master) and ``"background"``.
        aggregatable: True when the flow belongs to aggregatable traffic
            (used to split Figs. 6 and 7).
        children: flow ids that must drain before this flow is admitted
            (an aggregate cannot be forwarded before its inputs arrive).

    Every rate is bounded by the links of ``path`` alone: a box's
    processing rate is its ``proc_link``, so there is no per-flow cap.
    """

    flow_id: str
    size: float
    path: Tuple[str, ...] = ()
    start_time: float = 0.0
    job_id: Optional[str] = None
    kind: str = "background"
    aggregatable: bool = False
    children: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Chained/negated comparisons, so that NaN (false either way)
        # fails too: "NaN" is valid JSON input and a NaN size never
        # drains.
        if not 0 <= self.size < math.inf:
            raise ValueError(f"flow {self.flow_id!r} size not in [0, inf)")
        if not 0 <= self.start_time < math.inf:
            raise ValueError(f"flow {self.flow_id!r} start not in [0, inf)")

    @property
    def rate_cap(self) -> None:
        """Always ``None``: ``perf/sim.py``'s solver replay still reads
        it and passes it to ``add_flow``."""
        return None


@dataclass(frozen=True)
class CapacityEvent:
    """Scheduled change of one link's capacity (0 = link down)."""

    when: float
    link_id: str
    capacity: float

    def __post_init__(self) -> None:
        if self.when < 0:
            raise ValueError("capacity events cannot predate t=0")
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0 (0 = down)")


@dataclass(frozen=True)
class RerouteEvent:
    """Scheduled path change: remaining bytes continue on ``path``."""

    when: float
    flow_id: str
    path: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.when < 0:
            raise ValueError("reroute events cannot predate t=0")


@dataclass
class FlowRecord:
    """Outcome of one simulated flow."""

    spec: FlowSpec
    drain_time: float
    #: When the flow actually started transferring: its start time, or
    #: later if it waited for dependency children to drain.
    admitted_time: float = 0.0

    @property
    def completion_time(self) -> float:
        """When the flow's last byte arrived."""
        return self.drain_time

    @property
    def fct(self) -> float:
        """Flow completion time: the flow's own transfer duration."""
        return self.drain_time - self.admitted_time


@dataclass
class SimulationResult:
    """All per-flow records plus the network with its byte accounting."""

    records: Dict[str, FlowRecord]
    network: Network
    end_time: float

    def fcts(
        self,
        kinds: Optional[Sequence[str]] = None,
        aggregatable: Optional[bool] = None,
    ) -> List[float]:
        """FCTs of flows matching the filters (all flows by default)."""
        out = []
        for record in self.records.values():
            spec = record.spec
            if kinds is not None and spec.kind not in kinds:
                continue
            if aggregatable is not None and spec.aggregatable != aggregatable:
                continue
            out.append(record.fct)
        return out

    def link_traffic(self) -> Dict[str, float]:
        """Physical link id -> cumulative bytes carried (Fig. 9's
        metric; virtual processing links are left out)."""
        return {link.link_id: link.bytes_carried
                for link in self.network.wire_links()}


class FlowSim:
    """Simulate a set of flows over a :class:`Network` to completion.

    ``label`` names the run in traces (the planning strategy, usually);
    it lands on the ``flowsim.run`` span so multi-run traces stay
    attributable.  Under an enabled tracer a run also samples each
    physical link's utilization at every rate epoch where it changed.

    ``solver`` selects the max-min backend: ``"vectorized"`` (numpy),
    ``"incremental"`` (pure Python) or ``"auto"`` (the default:
    vectorized when numpy is importable, incremental otherwise).  The
    per-flow transfer bookkeeping follows the solver
    (:mod:`repro.netsim._transfer`): array operations over the
    vectorized solver's flow slots, dicts otherwise -- traced or not.
    """

    def __init__(self, network: Network, label: str = "",
                 solver: str = "auto") -> None:
        if solver not in SOLVER_BACKENDS:
            raise ValueError(
                f"unknown solver backend {solver!r}; "
                f"choose from {SOLVER_BACKENDS}")
        if solver == "vectorized" and not HAVE_NUMPY:
            raise RuntimeError(
                "solver='vectorized' requires numpy (pip install .[fast]); "
                "use solver='auto' for the automatic fallback")
        self._network = network
        self._label = label
        self._solver_backend = solver
        self._specs: Dict[str, FlowSpec] = {}
        self._cap_events: List[CapacityEvent] = []
        self._reroute_events: List[RerouteEvent] = []

    @property
    def network(self) -> Network:
        return self._network

    def spec(self, flow_id: str) -> FlowSpec:
        """The registered spec for ``flow_id`` (KeyError if unknown)."""
        return self._specs[flow_id]

    def flow_ids(self) -> List[str]:
        return sorted(self._specs)

    def add_capacity_event(self, when: float, link_id: str,
                           capacity: float) -> None:
        """Schedule a link capacity change (0 = down) at virtual time."""
        if link_id not in self._network:
            raise KeyError(f"capacity event on unknown link {link_id!r}")
        self._cap_events.append(CapacityEvent(when=when, link_id=link_id,
                                              capacity=capacity))

    def add_reroute_event(self, when: float, flow_id: str,
                          path: Sequence[str]) -> None:
        """Schedule a flow's remaining bytes onto a new path."""
        if flow_id not in self._specs:
            raise KeyError(f"reroute event for unknown flow {flow_id!r}")
        for link_id in path:
            if link_id not in self._network:
                raise KeyError(
                    f"reroute of {flow_id!r} uses unknown link {link_id!r}"
                )
        self._reroute_events.append(RerouteEvent(when=when, flow_id=flow_id,
                                                 path=tuple(path)))

    def add_flow(self, spec: FlowSpec) -> None:
        """Register a flow; validates path links and id uniqueness."""
        if spec.flow_id in self._specs:
            raise ValueError(f"duplicate flow id {spec.flow_id!r}")
        for link_id in spec.path:
            if link_id not in self._network:
                raise KeyError(
                    f"flow {spec.flow_id!r} uses unknown link {link_id!r}"
                )
        self._specs[spec.flow_id] = spec

    def add_flows(self, specs: Iterable[FlowSpec]) -> None:
        for spec in specs:
            self.add_flow(spec)

    def run(self) -> SimulationResult:
        """Run to completion and return per-flow records.

        One max-min solver lives for the whole run: admissions,
        completions, capacity changes and reroutes mutate it, and every
        event that lands on one virtual timestamp is coalesced into a
        single rate epoch (one solver consult; ``netsim.events`` counts
        the individual events, ``netsim.epochs`` the consults).  The
        run's state lives on a :class:`_Run`, and this loop drives its
        steps.  Each epoch is: apply due fault events, admit due flows,
        consult the solver for the epoch's length (until the next drain,
        admission or fault event), then advance to its end and record
        whoever finished.
        """
        self._validate_dependencies()
        run = _Run(self)
        while run.pending or run.state:
            run.apply_faults()
            run.admit()
            if run.state:
                run.advance(run.consult())
        return run.finish()

    def _validate_dependencies(self) -> None:
        """Raise ``KeyError`` on an unknown child and ``ValueError`` on
        a dependency cycle.  A depth-first walk with its own stack, so
        a chain of any length checks without recursion."""
        specs, done = self._specs, set()
        for root in specs:
            visiting, stack = {root}, [(root, iter(specs[root].children))]
            while stack:
                flow_id, children = stack[-1]
                child = next(children, None)
                if child is None:
                    stack.pop()
                    visiting.discard(flow_id)
                    done.add(flow_id)
                elif child in visiting:
                    raise ValueError(
                        f"dependency cycle through flow {child!r}")
                elif child not in done:
                    if child not in specs:
                        raise KeyError(f"unknown child flow {child!r}")
                    visiting.add(child)
                    stack.append((child, iter(specs[child].children)))


class _Run:
    """The state of one :meth:`FlowSim.run` and the steps of its loop.

    A flow is *pending* until it is admitted, *transferring* until it
    drains (the transfer state holds it, in the rate solve or stalled),
    then *recorded*.  Flows whose path crosses a down link are stalled
    (out of the solve) through a per-link index of transferring flows
    rather than a per-epoch scan.
    """

    def __init__(self, sim: FlowSim) -> None:
        METRICS.counter("netsim.runs").inc()
        METRICS.counter("netsim.flows").inc(len(sim._specs))
        self.specs = specs = sim._specs
        self.network = network = sim.network
        self.tracer = tracer = get_tracer()
        self.traced = tracer.enabled
        self.capacities = capacities = dict(network.capacities())
        self.solver = make_solver(capacities, sim._solver_backend)
        self.state = transfer_state(self.solver, specs)
        self.run_span = tracer.begin(
            "flowsim.run", 0.0, layer="netsim", flows=len(specs),
            links=len(capacities), strategy=sim._label) if self.traced else 0
        #: Physical links, and the utilization of each one's last
        #: ``link.util`` sample (traced runs).
        self.wire_ids = tuple(l.link_id for l in network.wire_links())
        self.last_util: Dict[str, float] = {}
        #: Current path per flow; reroute events replace entries.
        self.paths: Dict[str, Tuple[str, ...]] = {
            flow_id: spec.path for flow_id, spec in specs.items()}
        #: Bytes already charged to a (previous) path per rerouted flow.
        self.accounted: Dict[str, float] = {}
        # Fault events in time order; the sort is stable, so capacity
        # changes precede reroutes at equal times, then insertion order.
        self.events: List[object] = sorted(
            sim._cap_events + sim._reroute_events, key=lambda e: e.when)
        self.event_i = 0
        # Dependency bookkeeping: a flow is *armed* once every child has
        # drained; an armed flow is admitted at max(start_time, arm time).
        self.blockers: Dict[str, int] = {}
        self.dependents: Dict[str, List[str]] = {}
        self.pending: List[Tuple[float, str]] = []
        for flow_id, spec in specs.items():
            self.blockers[flow_id] = len(spec.children)
            for child in spec.children:
                self.dependents.setdefault(child, []).append(flow_id)
            if not spec.children:
                heapq.heappush(self.pending, (spec.start_time, flow_id))
        self.records: Dict[str, FlowRecord] = {}
        self.now = 0.0
        #: Links currently at zero capacity, and the per-link index of
        #: transferring flows used to find who a capacity or reroute
        #: event touches without scanning every active flow.
        self.down_links: Set[str] = {
            link_id for link_id, cap in capacities.items() if cap <= 0.0}
        self.link_flows: Dict[str, Set[str]] = {}
        self.n_events = 0   # admissions + completions + fault events
        self.n_epochs = 0   # rate epochs (one solver consult each)

    def apply_faults(self) -> None:
        """Apply every fault event due by now.  With nothing
        transferring, the clock first jumps to the next admission or
        fault event."""
        events = self.events
        if not self.state:
            wake = self.pending[0][0]
            if self.event_i < len(events):
                wake = min(wake, events[self.event_i].when)
            self.now = max(self.now, wake)
        while self.event_i < len(events) and \
                events[self.event_i].when <= self.now + EPSILON:
            event = events[self.event_i]
            self.event_i += 1
            self.n_events += 1
            if isinstance(event, CapacityEvent):
                self.apply_capacity(event)
            else:
                self.apply_reroute(event)

    def admit(self) -> None:
        """Admit armed flows whose admission time has arrived."""
        pending, specs, until = self.pending, self.specs, self.now
        while pending and pending[0][0] <= until + EPSILON:
            when, flow_id = heapq.heappop(pending)
            self.n_events += 1
            spec = specs[flow_id]
            admitted = max(when, spec.start_time)
            if spec.size <= 0 or not self.paths[flow_id]:
                self.drain(flow_id, admitted, admitted)
            else:
                self.records[flow_id] = FlowRecord(
                    spec=spec, drain_time=math.nan, admitted_time=admitted)
                self.state.admit(flow_id)
                self.attach(flow_id)

    def consult(self) -> float:
        """Open a rate epoch and return its length: until the next
        drain at the solver's rates, admission or fault event.  One
        consult covers every admission, completion and fault event
        applied at this instant; a clean solver answers straight from
        its cache."""
        self.n_epochs += 1
        state, pending, events, now = \
            self.state, self.pending, self.events, self.now
        dt = min(
            state.next_completion(),
            (pending[0][0] - now) if pending else math.inf,
            (events[self.event_i].when - now)
            if self.event_i < len(events) else math.inf,
        )
        if dt == math.inf:
            stuck = (f" ({state.n_stalled} flow(s) stuck on down links "
                     "with no recovery or reroute scheduled)"
                     if state.n_stalled else "")
            raise RuntimeError(
                "simulation stalled: active flows make no progress" + stuck)
        dt = max(dt, 0.0)
        if self.traced:
            self.trace_epoch(dt)
        return dt

    def advance(self, dt: float) -> None:
        """Move every flow in the solve ``dt`` seconds at this epoch's
        rates and record whoever drained."""
        self.now = now = self.now + dt
        records = self.records
        for flow_id in self.state.advance(dt):
            self.unindex(flow_id)
            self.drain(flow_id, now, records[flow_id].admitted_time)

    def finish(self) -> SimulationResult:
        """Publish the run's counters, charge each flow's bytes to the
        links that carried them, and close the trace."""
        METRICS.counter("netsim.events").inc(self.n_events)
        METRICS.counter("netsim.epochs").inc(self.n_epochs)
        for attr, name in _SOLVER_METRICS:
            METRICS.counter(name).inc(getattr(self.solver.stats, attr))
        records, specs, network = self.records, self.specs, self.network
        if len(records) != len(specs):
            missing = sorted(set(specs) - set(records))
            raise RuntimeError(f"flows never became eligible: {missing}")
        # Total bytes per link do not depend on the rate schedule, so
        # the accounting is exact and done once, here.  A rerouted flow
        # charged what it moved before the reroute to the old path when
        # the event fired; only the remainder lands here.
        for flow_id, spec in specs.items():
            rest = spec.size - self.accounted.get(flow_id, 0.0)
            for link_id in self.paths[flow_id]:
                network.account(link_id, rest)
        end_time = max((r.completion_time for r in records.values()),
                       default=0.0)
        if self.traced:
            # One ``link.traffic`` instant per physical link: how much
            # of its capacity-time the run used (Fig. 9's "where do the
            # bytes go" view, directly in the trace).
            for link in network.wire_links():
                busy = self.capacities.get(link.link_id, 0.0) * end_time
                self.tracer.instant(
                    "link.traffic", end_time, layer="netsim",
                    link=link.link_id, bytes=link.bytes_carried,
                    utilization=(link.bytes_carried / busy
                                 if busy > 0 else 0.0),
                )
            self.tracer.end(self.run_span, end_time)
        return SimulationResult(records=records, network=network,
                                end_time=end_time)

    def is_up(self, path: Sequence[str]) -> bool:
        down_links = self.down_links
        return not (down_links and any(l in down_links for l in path))

    def attach(self, flow_id: str) -> None:
        """Index a transferring flow by link; it enters the rate
        solve unless its path crosses a down link."""
        path = self.paths[flow_id]
        link_flows = self.link_flows
        for link_id in set(path):
            link_flows.setdefault(link_id, set()).add(flow_id)
        if self.is_up(path):
            self.state.enter(flow_id, path)

    def unindex(self, flow_id: str) -> None:
        link_flows = self.link_flows
        for link_id in set(self.paths[flow_id]):
            link_flows[link_id].discard(flow_id)

    def drain(self, flow_id: str, when: float, admitted: float) -> None:
        """Record a drained flow and arm the parents it unblocks."""
        self.n_events += 1
        spec = self.specs[flow_id]
        self.records[flow_id] = FlowRecord(
            spec=spec, drain_time=when, admitted_time=admitted)
        if self.traced:
            # One completed span per flow over its transfer window
            # [admitted, drained].  Flows overlap freely, so they
            # live on their own layer row (outside the LIFO stack)
            # and link to the run span explicitly.  The tags carry
            # the request/job DAG (children, path) the critical-path
            # extractor reconstructs.
            self.tracer.complete(
                "flow", admitted, when, layer="netsim.flow",
                parent_id=self.run_span,
                flow=flow_id, job=spec.job_id or "", kind=spec.kind,
                size=spec.size, wait=admitted - spec.start_time,
                path="|".join(self.paths[flow_id]),
                children="|".join(spec.children),
            )
        blockers, specs = self.blockers, self.specs
        for parent in self.dependents.get(flow_id, ()):
            blockers[parent] -= 1
            if blockers[parent] == 0:
                start = max(specs[parent].start_time, when)
                heapq.heappush(self.pending, (start, parent))

    def apply_capacity(self, event: CapacityEvent) -> None:
        link_id = event.link_id
        old = self.capacities[link_id]
        if self.traced:
            self.tracer.instant("capacity", event.when, layer="netsim",
                                link=link_id, capacity=event.capacity)
        if old == event.capacity:
            return
        self.capacities[link_id] = event.capacity
        self.solver.set_capacity(link_id, event.capacity)
        state = self.state
        if event.capacity <= 0.0 < old:
            self.down_links.add(link_id)
            # Flows crossing the downed link stall: they keep
            # their place but leave the rate solve.
            for fid in self.link_flows.get(link_id, ()):
                if not state.is_stalled(fid):
                    state.leave(fid)
        elif old <= 0.0 < event.capacity:
            self.down_links.discard(link_id)
            for fid in sorted(self.link_flows.get(link_id, ())):
                if state.is_stalled(fid) and self.is_up(self.paths[fid]):
                    state.enter(fid, self.paths[fid])

    def apply_reroute(self, event: RerouteEvent) -> None:
        flow_id, state, paths = event.flow_id, self.state, self.paths
        if self.traced:
            self.tracer.instant("reroute", event.when, layer="netsim",
                                flow=flow_id, hops=len(event.path))
        if flow_id in state:
            # Charge what transferred so far to the old path.
            moved = self.specs[flow_id].size - state.remaining(flow_id)
            delta = moved - self.accounted.get(flow_id, 0.0)
            if delta > 0:
                for link_id in paths[flow_id]:
                    self.network.account(link_id, delta)
                self.accounted[flow_id] = moved
            self.unindex(flow_id)
            if not state.is_stalled(flow_id):
                state.leave(flow_id)
            paths[flow_id] = event.path
            self.attach(flow_id)
        elif flow_id not in self.records:
            paths[flow_id] = event.path  # not admitted yet
        # else: already drained; nothing left to move

    def trace_epoch(self, dt: float) -> None:
        """The epoch's span, its active-flow count, and a
        ``link.util:<link>`` sample for each physical link whose
        utilization changed since its last sample.  A sample at ``now``
        holds the link's allocated-bandwidth fraction until the next one
        on its track; the timeline analyzer integrates these tracks into
        busy fractions and utilization percentiles."""
        tracer, state, now = self.tracer, self.state, self.now
        span = tracer.begin("epoch", now, layer="netsim",
                            active=len(state) - state.n_stalled,
                            stalled=state.n_stalled)
        tracer.sample("netsim.active_flows", now,
                      float(len(state)), layer="netsim")
        used: Dict[str, float] = {}
        for flow_id, rate in state.moving_rates():
            if rate <= 0.0 or rate == math.inf:
                continue
            for link_id in self.paths[flow_id]:
                used[link_id] = used.get(link_id, 0.0) + rate
        capacities, last_util = self.capacities, self.last_util
        for link_id in self.wire_ids:
            cap = capacities.get(link_id, 0.0)
            util = (used.get(link_id, 0.0) / cap) if cap > 0 else 0.0
            previous = last_util.get(link_id)
            if previous is not None and abs(util - previous) <= 1e-12:
                continue
            last_util[link_id] = util
            tracer.sample(LINK_UTIL_PREFIX + link_id, now, util,
                          layer="netsim")
        tracer.end(span, now + dt)
