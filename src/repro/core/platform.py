"""The NetAgg platform: boxes + shims wired to a topology.

This is the *functional* half of the reproduction: it executes real
application requests end-to-end through the same aggregation trees the
flow-level simulator prices, so results computed "through NetAgg" can be
checked for exact equality against a centralised computation.

Execution model:

- online requests (Solr-style) hash onto one aggregation tree each;
- batch jobs (Hadoop-style) split keyed data across all trees and merge
  the per-tree aggregates at the master;
- worker payloads travel as framed binary (the :mod:`repro.wire` layer),
  delivered to boxes in TCP-segment-sized pieces, so a frame larger than
  one segment is reassembled across piece boundaries;
- failed boxes are rewired out of the trees per §3.1 before execution;
- a request's state in the boxes and on the master shim lives exactly
  as long as the call that runs it: one ``finally`` retires it whether
  the request is answered or raises, so only the outcome outlives it.

Fault-aware execution is the only execution: the platform advances a
deterministic virtual clock and probes each box before it plans.  Built
without a fault oracle or retry policy it runs on the empty schedule
and the default policy (see :class:`NetAggPlatform`), so its clock still
moves by ``SEND_LATENCY`` per probe and per delivery.  A box that is
down burns ``TIMEOUT`` per attempt plus jittered backoff; a box that
exhausts its attempts is rewired out of the request's tree *before*
expected counts are announced, so partial-result accounting stays
consistent.  Each worker's partial then walks the degradation ladder
(entry box -> next on-path ancestor -> direct to master) and every retry,
fallback, bypass, degradation and churn wait is recorded as a
:class:`repro.core.shim.ShimEvent` on the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.aggbox.box import AggBoxRuntime, AppBinding
from repro.aggbox.functions import AggregationFunction
from repro.core.admission import AdmissionController
from repro.core.breaker import HALF_OPEN, BreakerBoard
from repro.core.partition import (
    HEDGE_DEADLINE,
    Completeness,
    GrayDetector,
    SubtreeUnreachable,
)
from repro.core.shim import MasterShim, ShimEvent, split_by_key
from repro.core.tree import AggregationTree, TreeBuilder, rewire_failed_box
from repro.faults.retry import MAX_ATTEMPTS, SEND_LATENCY, TIMEOUT
from repro.netsim.routing import stable_hash
from repro.obs import METRICS, get_tracer
from repro.topology.base import Topology
from repro.wire.framing import frame

#: A framed partial reaches a box in consecutive pieces of one TCP
#: segment payload: 1,500 B Ethernet MTU - 20 IP - 20 TCP - 12 timestamp
#: option.  Larger frames cross piece boundaries and are reassembled.
_SEGMENT_BYTES = 1448


@dataclass
class RequestOutcome:
    """Result of one end-to-end request execution."""

    request_id: str
    value: Any
    #: (worker_index, payload) pairs the master application observes; all
    #: but one are empty (the shim's empty-result emulation).
    worker_responses: List[Tuple[int, Any]]
    #: Boxes that performed aggregation work, in completion order.
    boxes_used: List[str]
    #: Trees used (one for online requests, all for batch jobs).
    trees_used: List[int]
    #: Bytes of framed partial-result data entering boxes.
    bytes_into_boxes: float
    #: Retries, fallbacks, bypasses, degradations and churn waits the
    #: shims performed while executing this request (empty when
    #: nothing went wrong).
    shim_events: List[ShimEvent] = field(default_factory=list)
    #: What fraction of the workers this value covers.  ``None`` on a
    #: platform built without ``partition``; otherwise always present,
    #: ``exact`` unless workers were dropped behind a partition
    #: (partial delivery).
    completeness: Optional[Completeness] = None

    def events_of_kind(self, kind: str) -> List[ShimEvent]:
        return [e for e in self.shim_events if e.kind == kind]


class NetAggPlatform:
    """Deployment of NetAgg over a topology with attached agg boxes.

    ``faults`` is the connect-time fault oracle, a
    :class:`repro.faults.PlatformFaultInjector` whose ``box_down``,
    ``isolated``, ``slowdown`` and ``churn_until`` the request path
    calls directly; ``retry`` is the shim retry policy.
    ``None`` is not a mode: ``faults=None`` *is*
    ``PlatformFaultInjector(FaultSchedule())`` and ``retry=None`` *is*
    ``RetryPolicy()``.  A platform built without an oracle therefore
    runs the one request path there is: every box is probed, none is
    found down, and the virtual clock advances by
    :data:`repro.faults.retry.SEND_LATENCY` per probe and per delivery,
    exactly as with an empty schedule.

    The overload-control plane is two arguments: ``breakers=True``
    wraps each probe in a per-target circuit breaker (constants in
    :mod:`repro.core.breaker`), and ``admission`` is the master shim's
    :class:`repro.core.admission.AdmissionController`, which raises
    :class:`repro.core.admission.AdmissionNack` for a request its
    tenant's bucket refuses.  The defaults have no breakers and admit
    everything.

    ``partition=True`` switches on the partition-tolerance plane (see
    :mod:`repro.core.partition`): workers the fault oracle reports as
    isolated from the master (``isolated``) are dropped from the
    request instead of failing it, and the outcome carries a
    :class:`repro.core.partition.Completeness` record; deliveries are
    hedged against :data:`repro.core.partition.HEDGE_DEADLINE`; and a
    :class:`repro.core.partition.GrayDetector` seeded with
    ``SEND_LATENCY`` flags slow-but-alive boxes, which the request
    path routes around.
    Without it, an isolated worker fails the whole request with
    :class:`SubtreeUnreachable` (the fail-stop baseline).
    """

    def __init__(self, topo: Topology, faults: Optional[Any] = None,
                 retry: Optional[Any] = None,
                 breakers: bool = False,
                 admission: Optional[AdmissionController] = None,
                 partition: bool = False) -> None:
        # Deferred: repro.faults imports repro.core for the tree types.
        from repro.faults import FaultSchedule, PlatformFaultInjector, \
            RetryPolicy
        # What "off" means is decided here, once, as a value: the
        # request path never asks whether these planes exist.
        if faults is None:
            faults = PlatformFaultInjector(FaultSchedule())
        if retry is None:
            retry = RetryPolicy()
        self._topo = topo
        self._builder = TreeBuilder(topo)
        self._faults = faults
        self._retry = retry
        self._boxes: Dict[str, AggBoxRuntime] = {
            info.box_id: AggBoxRuntime(info.box_id)
            for info in topo.all_boxes()
        }
        self._functions: Dict[str, AggregationFunction] = {}
        self._mergers: Dict[str, Callable[[Sequence[Any]], Any]] = {}
        self._failed: Set[str] = set()
        self._master_shims: Dict[str, MasterShim] = {}
        self._partition = partition
        self._gray = GrayDetector(SEND_LATENCY) if partition else None
        self._breakers = BreakerBoard() if breakers else None
        self._admission = admission
        self._clock = 0.0

    # -- deployment ------------------------------------------------------------

    @property
    def topology(self) -> Topology:
        return self._topo

    def box_runtime(self, box_id: str) -> AggBoxRuntime:
        return self._boxes[box_id]

    def register_app(
        self,
        app: str,
        function: AggregationFunction,
        serialise: Callable[[Any], bytes],
        deserialise: Callable[[bytes], Any],
    ) -> None:
        """Install an application's aggregation function on every box."""
        if app in self._functions:
            raise ValueError(f"app {app!r} already registered")
        self._functions[app] = function
        self._mergers[app] = lambda parts: function.merge(list(parts))
        for runtime in self._boxes.values():
            runtime.register_app(AppBinding(
                app=app,
                function=function,
                deserialise=deserialise,
                serialise=serialise,
            ))

    def apps(self) -> List[str]:
        return sorted(self._functions)

    @property
    def clock(self) -> float:
        """The platform's virtual clock (advanced by sends/retries)."""
        return self._clock

    def advance_clock(self, t: float) -> None:
        """Move the virtual clock forward to ``t`` (never backwards).

        Lets callers start a request inside a chosen fault window of the
        schedule (the clock otherwise only crawls by send latencies).
        """
        self._clock = max(self._clock, t)

    def begin_request(self, arrival: float) -> float:
        """Concurrency seam for the serving layer (open-loop arrivals).

        The platform is single-threaded on its virtual clock: concurrent
        callers serialise, and a request arriving while the platform is
        busy *queues*.  ``begin_request`` admits an arrival onto the
        clock -- advancing it when the platform is idle, leaving it
        alone when it is backlogged -- and returns the service start
        time (``>= arrival``), so callers can account queueing wait
        (``start - arrival``) separately from service time.
        """
        self.advance_clock(arrival)
        return self._clock

    @property
    def breakers(self) -> Optional[BreakerBoard]:
        """The per-target circuit breakers (None with breakers off)."""
        return self._breakers

    def fail_box(self, box_id: str) -> None:
        """Mark a box failed; future trees route around it (§3.1)."""
        if box_id not in self._boxes:
            raise KeyError(f"unknown box {box_id!r}")
        self._failed.add(box_id)

    # -- execution ------------------------------------------------------------

    def build_trees(self, key: str, master: str,
                    worker_hosts: Sequence[str],
                    n_trees: int = 1) -> List[AggregationTree]:
        """Aggregation trees for the endpoints, failures rewired out."""
        return self._builder.build_many(key, master, worker_hosts, n_trees,
                                        leave_out=self._failed)

    def execute_request(
        self,
        app: str,
        request_id: str,
        master: str,
        worker_partials: Sequence[Tuple[str, Any]],
        n_trees: int = 1,
        tenant: Optional[str] = None,
    ) -> RequestOutcome:
        """Run one online request end-to-end (one tree, by request hash).

        With admission control enabled, a non-admitted request raises
        :class:`repro.core.admission.AdmissionNack` before touching any
        tree (``tenant`` defaults to the app name).  An id among the
        last :data:`repro.core.shim.RETIRED_ID_WINDOW` this master
        retired is refused (``ValueError``) before that: no token spent,
        no tree built, no clock burnt.

        What the request creates in the boxes and the master shim lives
        exactly as long as this call: it is retired when the call
        returns or raises, and only the outcome outlives it.
        """
        self._check_app(app)
        self._refuse_duplicates(master, [request_id])
        self._admit(tenant or app)
        trees = self.build_trees(request_id, master,
                                 [h for h, _ in worker_partials], n_trees)
        chosen = trees[stable_hash(request_id) % len(trees)]
        return _Request(self, app, request_id, master, worker_partials,
                        chosen, tenant or app).run()

    def execute_batch(
        self,
        app: str,
        job_id: str,
        master: str,
        worker_keyed_items: Sequence[Tuple[str, List[Tuple[str, Any]]]],
        n_trees: int = 1,
        rebundle: Optional[Callable[[List[Any]], Any]] = None,
        tenant: Optional[str] = None,
    ) -> RequestOutcome:
        """Run a batch job: keyed items split across all trees (§3.1).

        ``worker_keyed_items`` maps each worker host to its keyed partial
        data; ``rebundle`` turns one worker's per-tree item list into the
        partial-result value the aggregation function expects (defaults
        to the identity on lists).
        """
        self._check_app(app)
        self._refuse_duplicates(
            master, [self._batch_request(job_id, t) for t in range(n_trees)])
        self._admit(tenant or app)
        rebundle = rebundle or (lambda items: items)
        hosts = [h for h, _ in worker_keyed_items]
        trees = self.build_trees(job_id, master, hosts, n_trees)
        splits = [split_by_key(keyed, len(trees))
                  for _, keyed in worker_keyed_items]
        outcomes = []
        for tree in trees:
            partials = [(host, rebundle(split[tree.tree_index]))
                        for host, split in zip(hosts, splits)]
            outcomes.append(_Request(
                self, app, self._batch_request(job_id, tree.tree_index),
                master, partials, tree, tenant or app,
            ).run())
        merged = self._mergers[app](
            [outcome.value for outcome in outcomes]
        )
        boxes_used = [b for o in outcomes for b in o.boxes_used]
        responses: List[Tuple[int, Any]] = [(0, merged)]
        responses.extend((i, None) for i in range(1, len(hosts)))
        parts = [o.completeness for o in outcomes
                 if o.completeness is not None]
        return RequestOutcome(
            request_id=job_id,
            value=merged,
            worker_responses=responses,
            boxes_used=boxes_used,
            trees_used=[t.tree_index for t in trees],
            bytes_into_boxes=sum(o.bytes_into_boxes for o in outcomes),
            shim_events=[e for o in outcomes for e in o.shim_events],
            completeness=Completeness.merged(parts) if parts else None,
        )


    # -- internals -----------------------------------------------------------

    def _check_app(self, app: str) -> None:
        if app not in self._functions:
            raise KeyError(f"app {app!r} is not registered")

    def _refuse_duplicates(self, master: str,
                           request_ids: Sequence[str]) -> None:
        """Front-door duplicate check, ahead of every charge."""
        shim = self._master_shims.get(master)
        if shim is not None:
            for request_id in request_ids:
                shim.refuse_duplicate(request_id)

    def _admit(self, tenant: str) -> None:
        """Admission gate: raises AdmissionNack when the shim refuses."""
        if self._admission is not None:
            self._admission.admit(tenant, self._clock)

    def _still_gray(self, box_id: str) -> bool:
        """Should a reachable box be planned out of a new tree as gray?

        With ``partition`` on, detector-flagged boxes are NACKed out of
        new trees: a gray box heartbeats fine, so only the latency feed
        can get it out.  A gray flag must not outlive the episode: the
        box is re-measured with a hedged probe (one send's charge)
        instead of trusting the stale flag forever, and a recovered box
        clears itself here and returns to the planner.
        """
        if self._gray is None or not self._gray.is_gray(box_id):
            return False
        _, _, charged = self._send_cost(box_id)
        self._clock += charged
        return self._gray.is_gray(box_id)

    def _send_cost(self, box_id: str) -> Tuple[float, float, float]:
        """``(factor, cost, charged)`` of one send into ``box_id`` now.

        ``factor`` is the combined slowdown (capacity degradation x gray
        window) and ``cost`` the latency it implies.  That true
        (pre-hedge) cost feeds the gray detector: hedging hides latency
        from the request, not from the health machinery.  With
        ``partition`` on, a send slower than the hedge deadline is raced
        against a duplicate down the healthy path, capping ``charged`` at
        :data:`HEDGE_DEADLINE` plus one healthy send.
        """
        factor = self._faults.slowdown(box_id, self._clock)
        cost = charged = SEND_LATENCY * factor
        if self._gray is not None:
            self._gray.observe(box_id, cost, at=self._clock)
            charged = min(cost, HEDGE_DEADLINE + SEND_LATENCY)
        return factor, cost, charged

    @staticmethod
    def _batch_request(job_id: str, tree_index: int) -> str:
        """The id one tree's share of a batch job runs under."""
        return f"{job_id}:t{tree_index}"


class _Request:
    """One request on its one tree, from interception to retirement.

    Owns everything that lives exactly as long as the request -- the
    audit trail, the probe verdicts, the workers excluded behind a
    partition, the master shim's entry and the per-tree id ``<id>@t<k>``
    the boxes know it by -- so the stages of the path (exclude, plan,
    announce, emit, propagate, answer, retire) read it off ``self``
    instead of passing it along.  The worker shim is :meth:`_send`: it
    walks a worker's ladder over the probe verdicts.
    """

    def __init__(self, platform: NetAggPlatform, app: str, request_id: str,
                 master: str, worker_partials: Sequence[Tuple[str, Any]],
                 tree: AggregationTree, tenant: str) -> None:
        self._p = platform
        self.app = app
        self.request_id = request_id
        self.tenant = tenant
        self.tree_request = tree.request_key(request_id)
        self.master = master
        self.partials = worker_partials
        #: The planned tree, which :meth:`_send` walks; ``run`` resolves
        #: it into the effective tree the boxes are told about.
        self.planned = tree
        shim = platform._master_shims.get(master)
        if shim is None:
            shim = platform._master_shims[master] = MasterShim(master)
        self.shim = shim
        self.events: List[ShimEvent] = []
        self.probes: Dict[str, bool] = {}
        self.excluded: Dict[int, str] = {}

    def run(self) -> RequestOutcome:
        p = self._p
        tracer = get_tracer()
        span = tracer.begin(
            "platform.request", p._clock, layer="platform",
            request=self.request_id, app=self.app,
            workers=len(self.partials), trees=1, tenant=self.tenant,
        ) if tracer.enabled else 0
        try:
            # Partition check first: workers the fault oracle reports as
            # isolated from the master cannot deliver, no matter how
            # many retries are burnt.  With ``partition`` on they are
            # dropped (partial delivery); without it the request fails
            # fast -- the fail-stop baseline.
            excluded = self.excluded
            for index, (host, _) in enumerate(self.partials):
                scope = p._faults.isolated(host, self.master, p._clock)
                if scope is not None:
                    excluded[index] = scope
            if excluded:
                missing = tuple(sorted(excluded))
                scopes = tuple(sorted(set(excluded.values())))
                if not p._partition:
                    raise SubtreeUnreachable(
                        self.request_id, missing, scopes,
                        detail="partial delivery disabled")
                if len(excluded) == len(self.partials):
                    raise SubtreeUnreachable(
                        self.request_id, missing, scopes,
                        detail="no reachable workers")
                for index in missing:
                    self.record("partition", f"worker:{index}",
                                excluded[index])
            # Resolve the effective tree next: partition-only subtrees
            # are pruned unprobed, then unreachable boxes are rewired
            # out, so the announced expected counts stay honest.
            tree = self._resolve(self._prune_excluded(self.planned))
            self.shim.intercept_request(self.request_id, tree,
                                        excluded=sorted(excluded))
            # From here on the request owns state: an entry on the
            # master shim and, once announced, one on every box of its
            # effective tree.  Whether it is answered or raises (a merge
            # refusing a partial, a box error, an incomplete tree), all
            # of it ends here -- nothing arrives for a request after it
            # has returned.
            try:
                return self._answer(tree, *self._deliver(tree))
            finally:
                abandoned = 0
                for box_id in tree.boxes:
                    abandoned += p._boxes[box_id].release(
                        self.app, self.tree_request)
                self.shim.retire(self.request_id)
                if abandoned:
                    METRICS.counter("platform.abandoned_partials").inc(
                        abandoned)
        finally:
            if span:
                tracer.end(span, p._clock)

    def _prune_excluded(self, tree: AggregationTree) -> AggregationTree:
        """Rewire out boxes whose every input is behind the partition.

        Runs *before* probing: a box that only serves excluded workers
        would otherwise burn the full retry budget timing out against
        the partition, for a subtree that cannot contribute anyway.
        Pruning cascades (a parent whose only child was pruned goes
        next), so the surviving tree has live inputs at every vertex.
        """
        if not self.excluded:
            return tree
        pruned = tree
        changed = True
        while changed:
            changed = False
            for box_id in sorted(pruned.boxes):
                vertex = pruned.boxes[box_id]
                if vertex.children:
                    continue
                if any(w not in self.excluded for w in vertex.direct_workers):
                    continue
                pruned = rewire_failed_box(pruned, box_id)
                changed = True
                break
        return pruned

    def _resolve(self, tree: AggregationTree) -> AggregationTree:
        """Probe every box and rewire the unreachable ones out (§3.1).

        Runs *before* expected counts are announced, so boxes never wait
        for partials that degraded elsewhere.  Every box of ``tree``
        leaves with a verdict in ``probes`` for the shims' ladder walks.
        Reachable gray boxes are NACKed and planned out the same way.
        """
        effective = tree
        for box_id in sorted(tree.boxes):
            reachable = self._probe(box_id)
            if not reachable:
                self.record("unreachable", self.request_id, box_id,
                            attempt=MAX_ATTEMPTS)
            elif self._p._still_gray(box_id):
                reachable = False
                self.record("nack", self.request_id, box_id, detail="gray")
            self.probes[box_id] = reachable
            if not reachable:
                effective = rewire_failed_box(effective, box_id)
        return effective

    def _probe(self, box_id: str) -> bool:
        """Connect-time probe with retries, burning virtual clock.

        Each failed attempt costs ``timeout`` plus a jittered backoff;
        because the clock advances between attempts, a box that recovers
        during a backoff window is genuinely saved by the retry.

        With circuit breakers enabled, an open breaker fails the probe
        immediately (zero clock burnt); a half-open breaker allows one
        probe attempt only.  The verdict covers
        partition scopes: a box isolated from the master fails its
        probes for as long as the partition holds.
        """
        p = self._p
        faults, policy = p._faults, p._retry
        source = self.request_id
        breaker = (p._breakers.breaker(box_id)
                   if p._breakers is not None else None)
        if breaker is not None and not breaker.allow(p._clock):
            self.record("breaker-open", source, box_id)
            return False
        attempts = MAX_ATTEMPTS
        if breaker is not None and breaker.state == HALF_OPEN:
            attempts = 1
        tracer = get_tracer()
        probe_span = tracer.begin(
            "platform.probe", p._clock, layer="platform",
            target=box_id, request=source,
        ) if tracer.enabled else 0
        try:
            for attempt in range(1, attempts + 1):
                # Down, or cut off from the master by a partition: such
                # a box is alive but its aggregates cannot reach the
                # master, so to the request it is exactly as unreachable
                # as a crashed one -- connect attempts time out.
                unreachable = faults.box_down(box_id, p._clock) \
                    or faults.isolated(box_id, self.master,
                                       p._clock) is not None
                if not unreachable:
                    p._clock += SEND_LATENCY
                    if breaker is not None:
                        breaker.record_success(p._clock)
                    return True
                p._clock += TIMEOUT
                self.record("retry", source, box_id, attempt=attempt)
                if breaker is not None:
                    breaker.record_failure(p._clock)
                if attempt < attempts:
                    p._clock += policy.backoff(
                        attempt, key=f"{source}->{box_id}")
            return False
        finally:
            if probe_span:
                tracer.end(probe_span, p._clock)

    def _deliver(self, tree: AggregationTree
                 ) -> Tuple[List[Any], List[str], float]:
        """Announce, emit and propagate over the effective tree.

        Returns the roots' aggregates, the boxes that emitted (in
        completion order) and the bytes that entered boxes.
        """
        p, app, tree_request = self._p, self.app, self.tree_request
        boxes_used: List[str] = []
        bytes_in = 0.0
        # Announce expected input counts to each participating box
        # (excluded workers will never emit, so they are not expected
        # anywhere).
        for box_id in tree.boxes:
            p._boxes[box_id].announce(app, tree_request,
                                      tree.fan_in(box_id, self.excluded))

        # Emissions queued for upstream delivery, as (box_id, aggregate);
        # each travels to its parent under the source tag ``box:<id>``.
        ready: List[Tuple[str, Any]] = []

        # Workers emit, each down its ladder into its entry box.
        for index, (_, value) in enumerate(self.partials):
            if index in self.excluded:
                continue
            self._wait_out_churn(index)
            landed, emitted, nbytes = self._send(index, value)
            bytes_in += nbytes
            if emitted is not None:
                ready.append((landed, emitted))

        # Propagate aggregates up the tree until the roots emit.  A
        # rewired tree can have several roots (a crashed root's
        # children); their outputs merge into the tree's single
        # aggregate before delivery.
        root_values: List[Any] = []
        while ready:
            box_id, emitted = ready.pop(0)
            boxes_used.append(box_id)
            parent = tree.boxes[box_id].parent
            if parent is None:
                root_values.append(emitted.value)
                continue
            # The box serialised its aggregate when it emitted it;
            # those bytes travel on as they are.
            parent_emitted, nbytes = self._feed(parent, f"box:{box_id}",
                                                emitted.payload)
            bytes_in += nbytes
            if parent_emitted is not None:
                ready.append((parent, parent_emitted))
        return root_values, boxes_used, bytes_in

    def _answer(self, tree: AggregationTree, root_values: List[Any],
                boxes_used: List[str], bytes_in: float) -> RequestOutcome:
        """Hand the aggregate to the master shim and build the outcome."""
        p, excluded = self._p, self.excluded
        if root_values:
            value = (root_values[0] if len(root_values) == 1
                     else p._mergers[self.app](root_values))
            self.shim.deliver_aggregate(self.request_id, value)
        if not self.shim.is_complete(self.request_id):
            raise RuntimeError(
                f"request {self.request_id!r} incomplete: boxes never "
                "emitted (inconsistent expected counts?)"
            )
        responses = self.shim.emulate_worker_responses(
            self.request_id, merge=p._mergers[self.app]
        )
        completeness = None
        if p._partition:
            completeness = Completeness(
                workers_total=len(self.partials),
                workers_included=len(self.partials) - len(excluded),
                missing_workers=tuple(sorted(excluded)),
                missing_scopes=tuple(sorted(set(excluded.values()))),
            )
        return RequestOutcome(
            request_id=self.request_id,
            value=responses[0][1],
            worker_responses=responses,
            boxes_used=boxes_used,
            trees_used=[tree.tree_index],
            bytes_into_boxes=bytes_in,
            shim_events=self.events,
            completeness=completeness,
        )

    def _send(self, index: int,
              value: Any) -> Tuple[Optional[str], Any, float]:
        """Send worker ``index``'s partial down its ladder (§3.1): from
        its entry box in the *planned* tree up past boxes ``_resolve``
        found unreachable (*fallback*), or direct to the master when
        none is left (*bypass*).  It lands on the effective tree's
        entry, so the announced counts match.  ``probes`` holds every
        box on the walk: each has a live input (the worker, or the child
        below it), so ``_prune_excluded`` kept it and ``_resolve``
        probed it.  Returns ``(landing box or None, emitted, bytes)``.
        """
        source = f"worker:{index}"
        target = self.planned.worker_entry[index]
        fell_back = False
        while target is not None and not self.probes[target]:
            fell_back = True
            target = self.planned.boxes[target].parent
        if target is None:
            if fell_back:
                self.record("bypass", source, "master")
            self.shim.deliver_direct(self.request_id, index, value)
            return None, None, 0.0
        if fell_back:
            self.record("fallback", source, target)
        # Worker partials arrive as values: this is the one place the
        # request path serialises on a box's behalf.
        serialise = self._p._boxes[target].binding(self.app).serialise
        emitted, nbytes = self._feed(target, source, serialise(value))
        return target, emitted, nbytes

    def _wait_out_churn(self, worker_index: int) -> None:
        """A churning worker holds its emission until the window ends."""
        p = self._p
        until = p._faults.churn_until(worker_index, p._clock)
        if until is not None and until > p._clock:
            self.record("churn", f"worker:{worker_index}",
                        f"worker:{worker_index}",
                        detail=f"until {until:g}", until=until)
            p._clock = until

    def record(self, kind: str, source: str, target: str, attempt: int = 0,
               detail: str = "", **tags: object) -> None:
        """Record one shim lifecycle event everywhere it is observed:
        the outcome's audit trail, the ``platform.shim.<kind>`` tally
        in the metrics registry, and (when tracing) an instant on the
        platform timeline, carrying the request id (the critical-path
        extractor groups shim events per request by it); extra ``tags``
        land on the instant only.
        """
        clock = self._p._clock
        self.events.append(ShimEvent(at=clock, kind=kind, source=source,
                                     target=target, attempt=attempt,
                                     detail=detail))
        METRICS.counter(f"platform.shim.{kind}").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(f"shim.{kind}", clock, layer="platform",
                           source=source, target=target, attempt=attempt,
                           detail=detail, request=self.request_id, **tags)

    def _feed(self, box_id: str, source: str, serialised: bytes):
        """Frame one serialised partial, deliver it to a box in
        :data:`_SEGMENT_BYTES` pieces, then charge the delivery's clock
        cost (inflated if the box is slow, capped if the send was
        hedged).

        ``serialised`` is the application codec's output: a worker's
        partial encoded by :meth:`_send`, or the ``payload`` a
        child box emitted.  The box knows the request by its per-tree
        id (the span's ``key``); the platform-level id is threaded onto
        the delivery span and, via :attr:`AggBoxRuntime.trace_origin`,
        onto the ``box.emit`` span of the box's aggregation.  The
        delivery span is the hop's one record: ``pending`` counts the
        partials the box holds for the request once this one is in,
        before any emission.
        """
        p = self._p
        runtime = p._boxes[box_id]
        # Keep the box's clock in step so its trace records carry
        # platform virtual time.
        runtime.clock = max(runtime.clock, p._clock)
        runtime.trace_origin = self.request_id
        app, tree_request = self.app, self.tree_request
        payload = frame(serialised)
        tracer = get_tracer()
        span = tracer.begin(
            "platform.deliver", p._clock, layer="platform", box=box_id,
            source=source, bytes=len(payload), request=self.request_id,
            app=app, key=tree_request,
            pending=len(runtime.pending_sources(app, tree_request)) + 1,
        ) if tracer.enabled else 0
        try:
            emitted = None
            for offset in range(0, len(payload), _SEGMENT_BYTES):
                result = runtime.submit_chunk(
                    app, tree_request, source,
                    payload[offset:offset + _SEGMENT_BYTES])
                if result is not None:
                    emitted = result
        finally:
            if span:
                tracer.end(span, p._clock)
        factor, cost, charged = p._send_cost(box_id)
        p._clock += charged
        if charged < cost:
            self.record("hedge", source, box_id,
                        detail=f"saved {cost - charged:g}", cost=charged)
        elif factor > 1.0:
            self.record("degraded", source, box_id, detail=f"x{factor:g}",
                        cost=cost)
        return emitted, float(len(payload))
