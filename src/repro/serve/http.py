"""A minimal asyncio HTTP/JSON front-end for the serving layer.

Dependency-free (``asyncio.start_server`` + hand-rolled HTTP/1.1
parsing) so the repo stays stdlib-only.  Endpoints:

- ``GET  /healthz``     -- liveness: ``{"ok": true, "clock": ...}``;
- ``GET  /v1/stats``    -- the per-tenant serving report so far, plus
  live windowed stats and the burn-rate alert feed when the service's
  telemetry plane is on;
- ``GET  /metrics``     -- Prometheus text-format exposition
  (``repro.obs.live.render_prometheus``);
- ``POST /v1/query``    -- one Solr-style partition/aggregate query;
- ``POST /v1/mlgrad``   -- one gradient-aggregation round.

Both GET endpoints read only bounded state (log-bucket digests,
windowed ring buffers, the registry's metric objects): their cost does
not grow with the number of requests served.

POST bodies are the JSON request dicts
:meth:`repro.serve.service.AggregationService.handle` understands
(``tenant``, ``id``, and either explicit payloads or a
``payload_seed``); the response body is the handler's response dict and
the HTTP status mirrors its ``status`` field, so an admission NACK
really is an HTTP 429 on the wire.

``python -m repro serve`` wraps :func:`serve_forever`.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple, Union

from repro.serve.service import AggregationService
from repro.workload.openloop import OP_MLGRAD, OP_QUERY

_MAX_BODY = 4 * 1024 * 1024

#: Most header lines one request may carry; one more is answered 431.
#: (One line longer than the stream reader's 64 KiB limit is a 431 too.)
_MAX_HEADERS = 100

_REASONS = {
    200: "OK", 206: "Partial Content", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed",
    413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _HttpError(Exception):
    """A request that failed *before* routing (parse/frame layer).

    Carries everything needed to answer with a well-formed JSON error
    instead of dropping the connection.  ``close`` is set when the
    stream cannot be resynchronised (an unread oversized body, a
    garbled request line), so the error is answered and the connection
    is then closed.
    """

    def __init__(self, status: int, error: str, reason: str,
                 close: bool = True) -> None:
        super().__init__(reason)
        self.status = status
        self.error = error
        self.reason = reason
        self.close = close


class HttpFrontend:
    """The asyncio server wrapping one :class:`AggregationService`."""

    def __init__(self, service: AggregationService) -> None:
        self.service = service
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port)
        sock = self._server.sockets[0]
        bound = sock.getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_until_cancelled(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- request plumbing --------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _HttpError as exc:
                    # Malformed and oversized requests get a real
                    # response (400/413 with a JSON body), never a
                    # silently dropped connection.
                    await _write_response(
                        writer, exc.status,
                        {"status": exc.status, "error": exc.error,
                         "reason": exc.reason})
                    if exc.close:
                        break
                    continue
                if request is None:
                    break
                method, path, body = request
                status, payload = await self.dispatch(method, path, body)
                await _write_response(writer, status, payload)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def dispatch(self, method: str, path: str, body: bytes,
                       ) -> Tuple[int, Union[Dict[str, Any], str]]:
        """Route one parsed HTTP request (also the test seam).

        A ``str`` payload is written as ``text/plain`` (the Prometheus
        exposition); dicts are written as JSON.
        """
        if method == "GET" and path == "/healthz":
            return 200, {"ok": True, "clock": self.service.clock}
        if method == "GET" and path == "/metrics":
            return 200, self.service.metrics_exposition()
        if method == "GET" and path == "/v1/stats":
            report = self.service.report
            telemetry = self.service.telemetry
            payload: Dict[str, Any] = {
                "requests": report.total_requests(),
                "clock": self.service.clock,
                "tenants": {
                    name: {
                        "requests": t.requests, "ok": t.ok,
                        "r206": t.partial,
                        "r429": t.rejected_admission,
                        "r503": t.rejected_unavailable,
                        "errors": t.errors,
                        # Digest estimates: O(bins) per scrape, never a
                        # sort over the full latency ledger.
                        "p50": t.p50_estimate(),
                        "p99": t.p99_estimate(),
                    }
                    for name, t in sorted(report.tenants.items())
                },
            }
            if telemetry is not None:
                for name, row in payload["tenants"].items():
                    row["window"] = telemetry.windowed(name)
                payload["alerts"] = {
                    "total": len(telemetry.monitor.alerts),
                    "burning": telemetry.monitor.active(),
                    "recent": [a.to_dict() for a in
                               telemetry.monitor.alerts[-5:]],
                }
            return 200, payload
        op = {"/v1/query": OP_QUERY, "/v1/mlgrad": OP_MLGRAD}.get(path)
        if op is None:
            return 404, {"status": 404, "error": "not-found",
                         "reason": f"no route {path!r}"}
        if method != "POST":
            return 405, {"status": 405, "error": "method-not-allowed",
                         "reason": f"{path} requires POST"}
        try:
            request = json.loads(body or b"{}")
            if not isinstance(request, dict):
                raise ValueError("body must be a JSON object")
        except ValueError as exc:
            return 400, {"status": 400, "error": "bad-json",
                         "reason": str(exc)}
        request["op"] = op
        response = await self.service.handle_async(request)
        return int(response["status"]), response


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes]]:
    """Parse one HTTP/1.1 request; None on clean EOF.

    Raises :class:`_HttpError` on frame-level problems -- a garbled
    request line (400), an unparseable or negative ``Content-Length``
    (400), a body larger than the 4 MiB frame limit (413), a header
    line over the reader's limit or more than ``_MAX_HEADERS`` header
    lines (431) -- so the
    connection handler can answer them properly.
    """
    try:
        line = await reader.readline()
    except (ConnectionError, ValueError):
        return None
    if not line:
        return None
    try:
        method, target, _version = line.decode("ascii").split(None, 2)
    except (UnicodeDecodeError, ValueError):
        raise _HttpError(400, "bad-request-line",
                         "request line is not valid HTTP")
    headers: Dict[str, str] = {}
    lines = 0
    while True:
        try:
            raw = await reader.readline()
        except ValueError:
            # The line outgrew the reader's limit: the stream cannot be
            # resynced, so answer and close.
            raise _HttpError(431, "header-too-large",
                             "a header line exceeds the 64 KiB limit")
        if raw in (b"\r\n", b"\n", b""):
            break
        lines += 1
        if lines > _MAX_HEADERS:
            raise _HttpError(431, "too-many-headers",
                             f"more than {_MAX_HEADERS} header lines")
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise _HttpError(400, "bad-content-length",
                         "Content-Length is not an integer")
    if length < 0:
        raise _HttpError(400, "bad-content-length",
                         "Content-Length is negative")
    if length > _MAX_BODY:
        # The body is not read, so the stream cannot be resynced:
        # answer 413 and close.
        raise _HttpError(
            413, "payload-too-large",
            f"body of {length} bytes exceeds the {_MAX_BODY}-byte limit")
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return method.upper(), path, body


#: Content type of the Prometheus text exposition format.
_EXPOSITION_TYPE = "text/plain; version=0.0.4; charset=utf-8"


async def _write_response(writer: asyncio.StreamWriter, status: int,
                          payload: Union[Dict[str, Any], str]) -> None:
    if isinstance(payload, str):
        body = payload.encode("utf-8")
        content_type = _EXPOSITION_TYPE
    else:
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n"
        "\r\n"
    ).encode("ascii")
    writer.write(head + body)
    await writer.drain()


async def serve_forever(service: AggregationService,
                        host: str = "127.0.0.1", port: int = 8080,
                        announce=print) -> None:
    """Run the HTTP front-end until cancelled (the CLI entry point)."""
    frontend = HttpFrontend(service)
    bound_host, bound_port = await frontend.start(host, port)
    announce(f"repro.serve listening on http://{bound_host}:{bound_port} "
             f"(POST /v1/query, POST /v1/mlgrad, GET /healthz, "
             f"GET /v1/stats, GET /metrics)")
    try:
        await frontend.serve_until_cancelled()
    finally:
        await frontend.stop()
