"""A small stdlib-only asyncio HTTP front door for the serving layer.

``repro serve`` binds :class:`DetectionHTTPServer` over a
:class:`~repro.serving.service.DetectionService`. The protocol surface
is deliberately tiny (HTTP/1.1, ``Connection: close``, JSON in/out):

- ``POST /detect`` with body ``{"query": "cheap hotels in rome"}`` →
  ``200`` and the same JSON shape as ``repro detect --json``.
- ``GET /stats`` → serving counters (cache hit rate, batch histogram…).
- ``GET /healthz`` → ``{"status": "ok"}`` once accepting traffic.

Admission-control rejections map to ``503`` with a ``Retry-After``
header (deterministic backpressure all the way to the wire), malformed
requests to ``400``, oversized bodies to ``413``, a request or header
line past the stream's line limit or more than ``MAX_HEADER_LINES``
headers to ``431``, unknown routes to ``404``. A connection dropped
mid-request is abandoned silently — there is no peer left to answer,
and nothing downstream (batcher, service) is ever touched with a
partial request. Shutdown is graceful:
:meth:`DetectionHTTPServer.stop` stops accepting connections, drains the
service (in-flight detections complete), then returns; ``run_server``
wires that to SIGINT/SIGTERM.

The request/response plumbing is module-level (:func:`read_http_request`,
:func:`http_response`) so the multi-replica router front door
(:mod:`repro.serving.router`) speaks byte-identical HTTP without a
second parser.
"""

from __future__ import annotations

import asyncio
import json
import signal

from repro.core.detector import Detection
from repro.errors import ModelError, ServerClosedError, ServerOverloadedError
from repro.serving.service import DetectionService

#: Largest accepted request body; detection inputs are short texts.
MAX_BODY_BYTES = 64 * 1024

#: Most header lines one request may carry; past it the request is a 431,
#: so a client streaming endless headers cannot hold the parser forever.
MAX_HEADER_LINES = 100

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}

#: Errors meaning "the client went away mid-exchange": the request can
#: never be answered, so handlers abandon the connection silently.
CLIENT_GONE = (asyncio.IncompleteReadError, ConnectionError, BrokenPipeError)


class HttpRequestError(Exception):
    """A malformed inbound HTTP request, carrying the deterministic
    status code and JSON error payload to answer it with (the parsing
    twin of :class:`~repro.errors.ServingError` — protocol errors map to
    4xx responses, never tracebacks)."""

    def __init__(self, status: int, error: str) -> None:
        super().__init__(error)
        self.status = status
        self.payload = {"error": error}


async def read_http_request(
    reader: asyncio.StreamReader, max_body_bytes: int = MAX_BODY_BYTES
) -> tuple[str, str, bytes]:
    """Read one HTTP/1.1 request and return ``(method, target, body)``.

    Malformed input raises :class:`HttpRequestError` with the status to
    answer (400 for a bad request line or Content-Length, 413 past
    ``max_body_bytes``, 431 for a request or header line longer than
    the reader's line limit or more than :data:`MAX_HEADER_LINES`
    headers); a connection dropped mid-request surfaces as
    ``asyncio.IncompleteReadError``/``ConnectionError`` for the caller
    to abandon. Used by both :class:`DetectionHTTPServer` and the
    router's front door (:class:`~repro.serving.router.RouterHTTPServer`).
    """
    request_line = await _read_line(reader, "request line")
    try:
        method, target, *_ = request_line.decode("ascii", "replace").split()
    except ValueError:
        raise HttpRequestError(400, "malformed request line") from None
    content_length = 0
    headers = 0
    while True:
        line = await _read_line(reader, "header line")
        if line in (b"\r\n", b"\n", b""):
            break
        headers += 1
        if headers > MAX_HEADER_LINES:
            raise HttpRequestError(
                431, f"more than {MAX_HEADER_LINES} header lines"
            )
        name, _, value = line.decode("ascii", "replace").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                raise HttpRequestError(400, "bad Content-Length") from None
    if content_length < 0:
        raise HttpRequestError(400, "bad Content-Length")
    if content_length > max_body_bytes:
        raise HttpRequestError(413, f"body exceeds {max_body_bytes} bytes")
    body = await reader.readexactly(content_length) if content_length else b""
    return method, target, body


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """One CRLF-terminated line; a line past the reader's limit (64 KiB
    by default) is a 431, not the ``ValueError`` ``readline`` raises."""
    try:
        return await reader.readline()
    except ValueError:
        raise HttpRequestError(431, f"{what} too long") from None


def http_response(status: int, payload: dict) -> bytes:
    """Serialize one ``Connection: close`` JSON response.

    The body is ``json.dumps(payload, sort_keys=True)`` — the same
    deterministic serialization :func:`detection_payload` consumers
    compare bit-for-bit. 503 responses carry ``Retry-After: 1`` so
    admission-control rejections are honest backpressure on the wire.
    """
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    headers = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    if status == 503:
        headers.append("Retry-After: 1")
    return "\r\n".join(headers).encode("ascii") + b"\r\n\r\n" + body


async def finish_response(
    writer: asyncio.StreamWriter, payload_bytes: bytes
) -> None:
    """Write ``payload_bytes``, flush, and close the connection, quietly
    tolerating a peer that already disconnected (the twin of
    :func:`http_response` on the write side)."""
    try:
        writer.write(payload_bytes)
        await writer.drain()
        writer.close()
        await writer.wait_closed()
    except CLIENT_GONE:  # pragma: no cover - peer raced the close
        pass


def detection_payload(detection: Detection) -> dict:
    """The wire shape of a detection (matches ``repro detect --json``)."""
    return {
        "query": detection.query,
        "head": detection.head,
        "modifiers": list(detection.modifiers),
        "constraints": list(detection.constraints),
        "method": detection.method,
        "score": detection.score,
    }


class DetectionHTTPServer:
    """Serve a :class:`DetectionService` over HTTP (see module docstring).

    >>> server = DetectionHTTPServer(service, port=0)     # doctest: +SKIP
    >>> await server.start()       # server.port is the bound port
    >>> await server.stop()        # drains in-flight requests
    """

    def __init__(
        self,
        service: DetectionService,
        host: str = "127.0.0.1",
        port: int = 8080,
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def service(self) -> DetectionService:
        """The detection service behind this server."""
        return self._service

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        if self._server is not None:
            return self._server.sockets[0].getsockname()[1]
        return self._port

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )

    async def serve_forever(self) -> None:
        """Block until the server is stopped."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain the service."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        await self._service.close()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, target, body = await read_http_request(reader)
        except HttpRequestError as exc:
            await finish_response(writer, http_response(exc.status, exc.payload))
            return
        except CLIENT_GONE:
            # The client vanished mid-request: there is nobody to answer,
            # and the batcher/service were never touched.
            writer.close()
            return
        try:
            status, payload = await self._respond(method, target, body)
        # repro: noqa[REP006] -- protocol edge: anything escaping a request
        # handler becomes a 500 response; a traceback must never hit the wire.
        except Exception as exc:
            status, payload = 500, {"error": f"internal error: {exc}"}
        await finish_response(writer, http_response(status, payload))

    async def _respond(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict]:
        if target == "/healthz" and method == "GET":
            return 200, {"status": "closed" if self._service.closed else "ok"}
        if target == "/stats" and method == "GET":
            return 200, self._service.stats()
        if target == "/detect":
            if method != "POST":
                return 405, {"error": "use POST /detect"}
            try:
                request = json.loads(body.decode("utf-8"))
                query = request["query"]
            except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
                return 400, {"error": 'body must be JSON: {"query": "..."}'}
            if not isinstance(query, str):
                return 400, {"error": "query must be a string"}
            try:
                detection = await self._service.detect(query)
            except ServerOverloadedError as exc:
                return 503, {"error": str(exc)}
            except ServerClosedError as exc:
                return 503, {"error": str(exc)}
            return 200, detection_payload(detection)
        if target == "/reload":
            if method != "POST":
                return 405, {"error": "use POST /reload"}
            try:
                request = json.loads(body.decode("utf-8"))
                snapshot = request["snapshot"]
            except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
                return 400, {"error": 'body must be JSON: {"snapshot": "..."}'}
            if not isinstance(snapshot, str):
                return 400, {"error": "snapshot must be a path string"}
            swap = getattr(self._service, "swap_snapshot", None)
            if swap is None:
                return 400, {"error": "this service does not support hot swap"}
            try:
                model_generation = swap(snapshot)
            except ServerClosedError as exc:
                return 503, {"error": str(exc)}
            except (ModelError, OSError) as exc:
                return 400, {"error": f"snapshot rejected: {exc}"}
            return 200, {
                "reloaded": 1,
                "snapshot": snapshot,
                "model_generation": model_generation,
            }
        return 404, {"error": f"no route {method} {target}"}


async def run_server(
    service: DetectionService,
    host: str = "127.0.0.1",
    port: int = 8080,
    ready=None,
) -> None:
    """Run a server until SIGINT/SIGTERM, then drain and return.

    ``ready`` (optional) is called with the bound port once the server
    accepts traffic — the CLI uses it to print the URL, tests to learn
    an ephemeral port.
    """
    server = DetectionHTTPServer(service, host, port)
    await server.start()
    if ready is not None:
        ready(server.port)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-main thread or platform without signal support
    try:
        await stop.wait()
    finally:
        await server.stop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.remove_signal_handler(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
