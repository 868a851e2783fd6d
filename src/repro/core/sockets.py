"""Socket-level traffic interception (§3.2.2, "Network interception").

The prototype wraps Java's socket class via ``SocketImplFactory`` so
applications "transparently generate an instance of the custom NetAgg
socket class when a new socket is created".  This module is the Python
analogue: an in-memory socket API (connect/send/recv/close) plus a
factory switch.  Applications written against :class:`SocketFactory`
need *zero changes* to run on NetAgg -- installing
:class:`NetAggSocketFactory` reroutes their partial-result connections
into agg boxes while control connections pass through untouched.

The demo application flow:

- a worker ``connect()``s to the master and ``send()``s framed partial
  results;
- with the plain factory, bytes arrive at the master's inbox;
- with the NetAgg factory, the shim classifies the connection (data
  plane vs control plane by port), redirects data-plane bytes into the
  entry agg box of the worker's aggregation tree, and the master's
  socket instead receives the box-built aggregate plus emulated empty
  results.

A request lives from ``register_request`` to that delivery: the factory
then releases it on every box of its tree and drops its routing, so it
holds only requests in flight, later frames on those connections pass
through as plain traffic and the id may be registered again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.platform import NetAggPlatform
from repro.wire.framing import ChunkReassembler, frame

#: Well-known ports of the demo protocol: DATA carries partial results
#: (the shim redirects it), CONTROL carries everything else.
DATA_PORT = 9410
CONTROL_PORT = 9411


class SocketError(RuntimeError):
    """Connection-level failures (closed endpoints, unknown hosts)."""


@dataclass
class Endpoint:
    """One application endpoint: per-port inboxes of received frames."""

    host: str
    inboxes: Dict[int, Deque[Tuple[str, bytes]]] = field(
        default_factory=dict
    )

    def inbox(self, port: int) -> Deque[Tuple[str, bytes]]:
        return self.inboxes.setdefault(port, deque())

    def recv(self, port: int) -> Optional[Tuple[str, bytes]]:
        """Next (source host, frame payload), or None when empty."""
        box = self.inbox(port)
        return box.popleft() if box else None


class Connection:
    """One logical connection created by a socket factory."""

    def __init__(self, src: str, dst: str, port: int,
                 deliver: Callable[[str, str, int, bytes], None]) -> None:
        self.src = src
        self.dst = dst
        self.port = port
        self._deliver = deliver
        self._reassembler = ChunkReassembler()
        self._closed = False
        self.bytes_sent = 0

    def send(self, data: bytes) -> int:
        """Stream bytes; complete frames are delivered to the endpoint."""
        if self._closed:
            raise SocketError(f"send on closed connection to {self.dst}")
        self.bytes_sent += len(data)
        for payload in self._reassembler.feed(data):
            self._deliver(self.src, self.dst, self.port, payload)
        return len(data)

    def send_frame(self, payload: bytes) -> int:
        """Convenience: frame and send one payload."""
        return self.send(frame(payload))

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed


class SocketFactory:
    """The plain factory: bytes go where the application pointed them."""

    def __init__(self) -> None:
        self._endpoints: Dict[str, Endpoint] = {}

    def endpoint(self, host: str) -> Endpoint:
        ep = self._endpoints.get(host)
        if ep is None:
            ep = Endpoint(host=host)
            self._endpoints[host] = ep
        return ep

    def connect(self, src: str, dst: str, port: int) -> Connection:
        self.endpoint(dst)  # materialise the destination
        return Connection(src, dst, port, self._deliver)

    def _deliver(self, src: str, dst: str, port: int,
                 payload: bytes) -> None:
        self.endpoint(dst).inbox(port).append((src, payload))


class NetAggSocketFactory(SocketFactory):
    """The shim: data-plane connections are redirected into agg boxes.

    The application code is identical -- it still ``connect()``s to the
    master and sends its frames.  The factory intercepts DATA_PORT
    connections whose destination is a registered request's master,
    feeds the bytes into the worker's entry box instead, and delivers
    the aggregate to the master when the boxes finish, alongside
    emulated empty frames from the other workers (§3.2.2).
    """

    def __init__(self, platform: NetAggPlatform, app: str) -> None:
        super().__init__()
        self._platform = platform
        self._app = app
        #: (master, request) -> routing state of a request in flight.
        self._requests: Dict[Tuple[str, str], "_RequestRouting"] = {}

    # -- request registration (done by the master shim) ---------------------

    def register_request(self, request_id: str, master: str,
                         worker_hosts: List[str],
                         n_trees: int = 1) -> None:
        """The master's shim announces a scatter (§3.2.2 metadata)."""
        key = (master, request_id)
        if key in self._requests:
            raise SocketError(f"duplicate request {request_id!r}")
        trees = self._platform.build_trees(request_id, master,
                                           worker_hosts, n_trees)
        from repro.netsim.routing import stable_hash

        tree = trees[stable_hash(request_id) % len(trees)]
        routing = _RequestRouting(
            request_id=request_id,
            master=master,
            worker_hosts=list(worker_hosts),
            tree=tree,
            box_request=tree.request_key(request_id),
        )
        self._requests[key] = routing
        for box_id in tree.boxes:
            self._platform.box_runtime(box_id).announce(
                self._app, routing.box_request, tree.fan_in(box_id)
            )

    # -- interception --------------------------------------------------------

    def connect(self, src: str, dst: str, port: int) -> Connection:
        if port != DATA_PORT:
            return super().connect(src, dst, port)
        return Connection(src, dst, port, self._redirect)

    def _redirect(self, src: str, dst: str, port: int,
                  payload: bytes) -> None:
        routing = self._find_routing(src, dst)
        if routing is None:
            # Not partial-result traffic we know about: pass through.
            super()._deliver(src, dst, port, payload)
            return
        index = routing.worker_hosts.index(src)
        entry = routing.tree.worker_entry[index]
        if entry is None:
            super()._deliver(src, dst, port, payload)
            routing.direct_done += 1
            self._maybe_finish(routing)
            return
        ready = self._platform.box_runtime(entry).submit_chunk(
            self._app, routing.box_request, f"worker:{index}",
            frame(payload),
        )
        if ready is not None:
            self._climb(routing, entry, ready)
        self._maybe_finish(routing)

    # -- internals -----------------------------------------------------------

    def _find_routing(self, src: str, dst: str) -> Optional["_RequestRouting"]:
        for (master, _), routing in self._requests.items():
            if master == dst and src in routing.worker_hosts:
                return routing
        return None

    def _climb(self, routing: "_RequestRouting", box_id: str,
               ready) -> None:
        """Propagate an emitted aggregate towards the master."""
        vertex = routing.tree.boxes[box_id]
        if vertex.parent is None:
            routing.aggregates.append(ready.payload)
            return
        parent_rt = self._platform.box_runtime(vertex.parent)
        emitted = parent_rt.submit_chunk(
            self._app, routing.box_request, f"box:{box_id}",
            frame(ready.payload),
        )
        if emitted is not None:
            self._climb(routing, vertex.parent, emitted)

    def _maybe_finish(self, routing: "_RequestRouting") -> None:
        """Deliver to the master once every root aggregate is in, which
        ends the request: its boxes release it and its routing goes."""
        want_roots = len(routing.tree.roots())
        want_direct = len(routing.tree.direct_workers())
        if len(routing.aggregates) < want_roots or \
                routing.direct_done < want_direct:
            return
        master_inbox = self.endpoint(routing.master).inbox(DATA_PORT)
        # All aggregated data attributed to the first worker; the rest
        # send empty frames (the master's unmodified gather loop still
        # sees one response per worker).
        for i, host in enumerate(routing.worker_hosts):
            if i == 0:
                for payload in routing.aggregates:
                    master_inbox.append((host, payload))
            elif routing.tree.worker_entry[i] is not None:
                master_inbox.append((host, b""))
        for box_id in routing.tree.boxes:
            self._platform.box_runtime(box_id).release(
                self._app, routing.box_request)
        del self._requests[(routing.master, routing.request_id)]


@dataclass
class _RequestRouting:
    request_id: str
    master: str
    worker_hosts: List[str]
    tree: Any
    #: The id the tree's boxes know the request by.
    box_request: str
    aggregates: List[bytes] = field(default_factory=list)
    direct_done: int = 0
