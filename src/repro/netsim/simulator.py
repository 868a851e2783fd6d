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
            endpoints (the flow then finishes instantly unless rate-capped).
        start_time: virtual time at which the flow becomes active.
        job_id: optional grouping key (one partition/aggregation job).
        kind: free-form label -- the strategies use ``"worker"``,
            ``"internal"`` (box->box / relay hops), ``"result"`` (last hop
            into the master) and ``"background"``.
        aggregatable: True when the flow belongs to aggregatable traffic
            (used to split Figs. 6 and 7).
        children: flow ids that must drain before this flow is admitted
            (an aggregate cannot be forwarded before its inputs arrive).
        rate_cap: optional per-flow rate ceiling in bytes/second.
    """

    flow_id: str
    size: float
    path: Tuple[str, ...] = ()
    start_time: float = 0.0
    job_id: Optional[str] = None
    kind: str = "background"
    aggregatable: bool = False
    children: Tuple[str, ...] = ()
    rate_cap: Optional[float] = None

    def __post_init__(self) -> None:
        # Chained/negated comparisons, so that NaN (false either way)
        # fails too: "NaN" is valid JSON input and a NaN size never
        # drains.
        if not 0 <= self.size < math.inf:
            raise ValueError(f"flow {self.flow_id!r} size not in [0, inf)")
        if not 0 <= self.start_time < math.inf:
            raise ValueError(f"flow {self.flow_id!r} start not in [0, inf)")
        if self.rate_cap is not None and not self.rate_cap > 0:
            raise ValueError(f"flow {self.flow_id!r} has non-positive cap")


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


class _LinkUtilSampler:
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


class FlowSim:
    """Simulate a set of flows over a :class:`Network` to completion.

    ``label`` names the run in traces (the planning strategy, usually);
    it lands on the ``flowsim.run`` span so multi-run traces stay
    attributable.  ``link_sample_period`` throttles the traced per-link
    utilization counter tracks: ``None`` (the default) emits a sample at
    every rate epoch where a link's utilization changed, a positive
    period additionally caps each link's track at one sample per period
    (coarser timelines, smaller traces).  Sampling only happens under an
    enabled tracer.

    ``solver`` selects the max-min backend: ``"vectorized"`` (numpy),
    ``"incremental"`` (pure Python) or ``"auto"`` (the default:
    vectorized when numpy is importable, incremental otherwise).  The
    per-flow transfer bookkeeping follows the solver
    (:mod:`repro.netsim._transfer`): array operations over the
    vectorized solver's flow slots, dicts otherwise -- traced or not.
    """

    def __init__(self, network: Network, label: str = "",
                 link_sample_period: Optional[float] = None,
                 solver: str = "auto") -> None:
        if link_sample_period is not None and link_sample_period < 0:
            raise ValueError("link_sample_period must be >= 0 (or None)")
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
        self._link_sample_period = link_sample_period
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
        sampler = _LinkUtilSampler(
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
