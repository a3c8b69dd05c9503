"""The one stdlib-only asyncio HTTP front door of the serving layer.

``repro serve`` binds :class:`DetectionHTTPServer` over a local
:class:`~repro.serving.service.DetectionService`; ``repro route`` binds
the same class over a :class:`~repro.serving.router.Router`. Both are
*backends* of one small contract — ``detect``, ``stats``, ``healthz``,
``reload`` and ``close`` (see :class:`DetectionHTTPServer`) — so the
two front doors speak byte-identical HTTP from one request handler.
The protocol surface is deliberately tiny (HTTP/1.1,
``Connection: close``, JSON in/out):

- ``POST /detect`` with body ``{"query": "cheap hotels in rome"}`` →
  ``200`` and the same JSON shape as ``repro detect --json``.
- ``POST /reload`` with body ``{"snapshot": "/path/to/g2.hdms"}`` → the
  backend's hot swap.
- ``GET /stats`` → serving counters (cache hit rate, batch histogram…).
- ``GET /healthz`` → ``{"status": "ok"}`` once accepting traffic.

Admission-control rejections map to ``503`` with a ``Retry-After``
header (deterministic backpressure all the way to the wire), malformed
requests to ``400``, oversized bodies to ``413``, a request or header
line past the stream's line limit or more than ``MAX_HEADER_LINES``
headers to ``431``, a request that has not fully arrived within
``READ_TIMEOUT_S`` to ``408``, unknown routes to ``404``. A connection
dropped mid-request is abandoned silently — there is no peer left to
answer, and nothing downstream (batcher, service, router) is ever
touched with a partial request.

Shutdown is graceful: :meth:`Listener.stop` stops accepting
connections, then closes the backend (in-flight detections complete).
:func:`run_server` wires that to SIGINT/SIGTERM for every serving
process — the HTTP front door and the replica socket server
(:class:`~repro.serving.replica.ReplicaServer`) alike.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import signal

from repro.core.detector import Detection
from repro.errors import (
    ModelError,
    ServerClosedError,
    ServerOverloadedError,
    ServingError,
)

#: Largest accepted request body; detection inputs are short texts.
MAX_BODY_BYTES = 64 * 1024

#: Most header lines one request may carry; past it the request is a 431,
#: so a client streaming endless headers cannot hold the parser forever.
MAX_HEADER_LINES = 100

#: Seconds a client has to deliver its whole request; past it the
#: request is a 408, so a slow or stalled client cannot hold a
#: connection (and its handler task) open forever.
READ_TIMEOUT_S = 10.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
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
    to abandon.
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


class Listener:
    """One asyncio TCP listener in front of a backend: bind, report the
    bound port, and stop gracefully (stop accepting, then close the
    backend). Subclasses supply the per-connection ``_handle``."""

    def __init__(self, backend, host: str = "127.0.0.1", port: int = 0) -> None:
        self._backend = backend
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def backend(self):
        """The backend this listener serves."""
        return self._backend

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
        """Graceful shutdown: stop accepting, close the backend."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        await self._backend.close()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        raise NotImplementedError


class DetectionHTTPServer(Listener):
    """Serve a detection backend over HTTP (see module docstring).

    The backend is a :class:`~repro.serving.service.DetectionService`
    or a :class:`~repro.serving.router.Router`; it provides

    - ``async detect(query)`` → a :class:`~repro.core.detector.Detection`
      or its :func:`detection_payload` dict;
    - ``stats()`` → a dict, or an awaitable of one;
    - ``healthz()`` → ``(status, payload)``;
    - ``async reload(snapshot)`` → ``(status, payload)``;
    - ``async close()``.

    Status codes that depend on the backend (the router's 503 with no
    replica up, its 502 when no replica reloaded) come from the backend
    itself; everything else — parsing, error mapping, serialization —
    lives here once.

    >>> server = DetectionHTTPServer(service, port=0)     # doctest: +SKIP
    >>> await server.start()       # server.port is the bound port
    >>> await server.stop()        # drains in-flight requests
    """

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, target, body = await asyncio.wait_for(
                read_http_request(reader), READ_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            error = {"error": f"request not received within {READ_TIMEOUT_S}s"}
            await finish_response(writer, http_response(408, error))
            return
        except HttpRequestError as exc:
            await finish_response(writer, http_response(exc.status, exc.payload))
            return
        except CLIENT_GONE:
            # The client vanished mid-request: there is nobody to answer,
            # and the backend was never touched.
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
        backend = self._backend
        if target == "/healthz" and method == "GET":
            return backend.healthz()
        if target == "/stats" and method == "GET":
            stats = backend.stats()
            return 200, (await stats) if inspect.isawaitable(stats) else stats
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
                result = await backend.detect(query)
            except (ServerOverloadedError, ServerClosedError) as exc:
                return 503, {"error": str(exc)}
            except ServingError as exc:
                return 500, {"error": str(exc)}
            if isinstance(result, Detection):
                result = detection_payload(result)
            return 200, result
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
            try:
                return await backend.reload(snapshot)
            except ServerClosedError as exc:
                return 503, {"error": str(exc)}
            except (ModelError, OSError) as exc:
                return 400, {"error": f"snapshot rejected: {exc}"}
        return 404, {"error": f"no route {method} {target}"}


_STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM)


async def run_server(server: Listener, ready=None) -> None:
    """Run ``server`` until SIGINT/SIGTERM, then stop it and return.

    The one process run loop behind ``repro serve``, ``repro route`` and
    ``repro replica``: start the listener, call ``ready`` (optional)
    with the bound port — the CLI prints its ready line there, tests
    learn an ephemeral port — wait for a stop signal, then stop the
    listener (which closes its backend, so in-flight work drains). The
    backend is closed even when binding fails.
    """
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    try:
        await server.start()
        if ready is not None:
            ready(server.port)
        for signum in _STOP_SIGNALS:
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread or platform without signal support
        await stop.wait()
    finally:
        await server.stop()
        for signum in _STOP_SIGNALS:
            try:
                loop.remove_signal_handler(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
