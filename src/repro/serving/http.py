"""The one stdlib-only asyncio HTTP front door of the serving layer.

``repro serve`` binds :class:`DetectionHTTPServer` over a local
:class:`~repro.serving.service.DetectionService`; ``repro route`` binds
the same class over a :class:`~repro.serving.router.Router`. Both are
*backends* of one small contract — ``detect``, ``stats``, ``healthz``,
``reload`` and ``close`` (see :class:`DetectionHTTPServer`) — so the
two front doors speak byte-identical HTTP from one request handler.
The protocol surface is deliberately tiny (HTTP/1.1 with persistent
connections, JSON in/out):

- ``POST /detect`` with body ``{"query": "cheap hotels in rome"}`` →
  ``200`` and the same JSON shape as ``repro detect --json``.
- ``POST /reload`` with body ``{"snapshot": "/path/to/g2.hdms"}`` → the
  backend's hot swap.
- ``GET /stats`` → serving counters (cache hit rate, stage latencies…)
  plus an ``http`` block of connection counters and a ``process`` block
  with the serving process's peak resident set (``max_rss_mb``), so an
  operator sees what a hot swap costs in memory.
- ``GET /healthz`` → ``{"status": "ok"}`` once accepting traffic.

Connections are kept alive: one connection carries any number of
requests, pipelined ones included, answered in order. A response
carries ``Connection: close`` (and the server then hangs up) only when
the client asked for it, the request is HTTP/1.0, the request failed to
parse (the stream position is then unknown), or the server is
stopping. A kept-alive connection that sends nothing for
``READ_TIMEOUT_S`` is closed without a response, and a client that
goes away between requests is simply let go. At most
``MAX_CONNECTIONS`` connections are open at once; one more is answered
``503`` and closed, so idle clients cannot exhaust file descriptors.

Load-shedding rejections (the router's admission and "no live
replica") map to ``503`` with a ``Retry-After`` header (deterministic
backpressure all the way to the wire), malformed requests to ``400``,
oversized bodies and queries of more than
:data:`~repro.text.normalizer.MAX_QUERY_TOKENS` tokens to ``413``, a
request or header line past the stream's line limit or more than
``MAX_HEADER_LINES`` headers to ``431``, a request that has started but
not fully arrived within ``READ_TIMEOUT_S`` to ``408``, unknown routes
to ``404``. A connection dropped mid-request is abandoned silently —
there is no peer left to answer, and nothing downstream (service,
router) is ever touched with a partial request.

Shutdown is graceful: :meth:`Listener.stop` stops accepting
connections, hangs up idle kept-alive ones, lets in-flight requests
finish, then closes the backend.
:func:`run_server` wires that to SIGINT/SIGTERM for every serving
process — the HTTP front door and the replica socket server
(:class:`~repro.serving.replica.ReplicaServer`) alike.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import signal
import sys
from typing import TYPE_CHECKING

from repro.errors import (
    ModelError,
    ServerClosedError,
    ServerOverloadedError,
    ServingError,
)
from repro.text.normalizer import token_cap_error

if TYPE_CHECKING:
    from repro.core.detector import Detection

#: Largest accepted request body; detection inputs are short texts.
MAX_BODY_BYTES = 64 * 1024

#: Most header lines one request may carry; past it the request is a 431,
#: so a client streaming endless headers cannot hold the parser forever.
MAX_HEADER_LINES = 100

#: Seconds a client has to deliver its whole request once its first
#: byte is in; past it the request is a 408, so a slow or stalled client
#: cannot hold a connection (and its handler task) open forever. A
#: kept-alive connection idle this long between requests is closed.
READ_TIMEOUT_S = 10.0

#: Most connections the front door holds open at once (above the 64
#: concurrent clients of the r12 bench, below the usual 1,024-fd soft
#: limit); one more is answered 503 with ``Retry-After`` and closed.
MAX_CONNECTIONS = 256

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
    reader: asyncio.StreamReader,
    max_body_bytes: int = MAX_BODY_BYTES,
    first: bytes = b"",
) -> tuple[str, str, bytes, bool] | None:
    """Read one HTTP request and return ``(method, target, body, close)``.

    ``close`` is the client's close intent: true for an HTTP/1.0
    request, a ``Connection: close`` header, or a
    ``Transfer-Encoding`` body this parser does not frame — after
    answering, the connection must not carry another request. ``first``
    is the request's first byte when the caller already read it (the
    keep-alive idle wait does). A clean EOF before the request line
    returns ``None``: the client went away between requests.

    Malformed input raises :class:`HttpRequestError` with the status to
    answer (400 for a bad request line or Content-Length, 413 past
    ``max_body_bytes``, 431 for a request or header line longer than
    the reader's line limit or more than :data:`MAX_HEADER_LINES`
    headers); a connection dropped mid-request (EOF inside a line
    included) surfaces as ``asyncio.IncompleteReadError``/
    ``ConnectionError`` for the caller to abandon.
    """
    try:
        request_line = first + await _read_line(reader, "request line")
    except asyncio.IncompleteReadError as exc:
        if first or exc.partial:
            raise
        return None
    try:
        method, target, *version = request_line.decode("ascii", "replace").split()
    except ValueError:
        raise HttpRequestError(400, "malformed request line") from None
    close = version[:1] != ["HTTP/1.1"]
    content_length = 0
    headers = 0
    while True:
        line = await _read_line(reader, "header line")
        if line in (b"\r\n", b"\n"):
            break
        headers += 1
        if headers > MAX_HEADER_LINES:
            raise HttpRequestError(
                431, f"more than {MAX_HEADER_LINES} header lines"
            )
        name, _, value = line.decode("ascii", "replace").partition(":")
        name = name.strip().lower()
        if name == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                raise HttpRequestError(400, "bad Content-Length") from None
        elif name == "connection":
            close = close or "close" in (
                token.strip().lower() for token in value.split(",")
            )
        elif name == "transfer-encoding":
            close = True
    if content_length < 0:
        raise HttpRequestError(400, "bad Content-Length")
    if content_length > max_body_bytes:
        raise HttpRequestError(413, f"body exceeds {max_body_bytes} bytes")
    body = await reader.readexactly(content_length) if content_length else b""
    return method, target, body, close


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """One LF-terminated line; a line past the reader's limit (64 KiB by
    default) is a 431, and EOF before the LF raises
    ``asyncio.IncompleteReadError``."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.LimitOverrunError:
        raise HttpRequestError(431, f"{what} too long") from None


def http_response(status: int, payload: dict, close: bool = True) -> bytes:
    """Serialize one JSON response; ``close`` adds ``Connection: close``
    (the server hangs up after it), otherwise the connection stays open
    for the client's next request.

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
    ]
    if close:
        headers.append("Connection: close")
    if status == 503:
        headers.append("Retry-After: 1")
    return "\r\n".join(headers).encode("ascii") + b"\r\n\r\n" + body


async def finish_response(
    writer: asyncio.StreamWriter, payload_bytes: bytes, close: bool = True
) -> None:
    """Write ``payload_bytes`` and flush; with ``close``, also close the
    connection. A peer that already disconnected is tolerated quietly
    (the twin of :func:`http_response` on the write side, so pass both
    the same ``close``)."""
    try:
        writer.write(payload_bytes)
        await writer.drain()
        if close:
            writer.close()
            await writer.wait_closed()
    except CLIENT_GONE:  # pragma: no cover - peer raced the close
        pass


def _time_out(writer: asyncio.StreamWriter) -> None:
    """Answer a request that did not fully arrive in time with 408 and
    hang up; the handler's pending read then ends at EOF."""
    error = {"error": f"request not received within {READ_TIMEOUT_S}s"}
    writer.write(http_response(408, error))
    writer.close()


def process_stats() -> dict:
    """The ``process`` block of ``GET /stats``: this process's peak
    resident set in MiB. ``ru_maxrss`` is in KiB on Linux and in bytes
    on macOS."""
    import resource  # only /stats reads it: no import cost at spawn

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    unit = 1 if sys.platform == "darwin" else 1024
    return {"max_rss_mb": round(peak * unit / (1024 * 1024), 1)}


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
        """Graceful shutdown: stop accepting, let open connections wind
        down (:meth:`_drain_connections`), close the backend."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await self._drain_connections()
            await server.wait_closed()
        await self._backend.close()

    async def _drain_connections(self) -> None:
        """Wind down open connections before the server is closed (on
        Python ≥ 3.12 ``wait_closed`` waits for every one of them).
        Nothing to do for a listener whose peers hang up themselves."""

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

    def __init__(self, backend, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__(backend, host, port)
        self._handlers: set[asyncio.Task] = set()
        self._idle: set[asyncio.StreamWriter] = set()
        self._stopping = False
        self._opened = 0
        self._requests = 0
        self._refused = 0

    def _http_stats(self) -> dict:
        """Connection counters for the ``http`` block of ``GET /stats``;
        ``requests`` counts the requests read in full on accepted
        connections, so ``requests / connections_opened`` is the
        connection reuse."""
        return {
            "connections_opened": self._opened,
            "connections_open": len(self._handlers),
            "requests": self._requests,
            "refused_at_cap": self._refused,
        }

    async def _drain_connections(self) -> None:
        # Hang up idle kept-alive connections; a connection mid-request
        # answers it (with ``Connection: close``) and then ends.
        self._stopping = True
        for writer in tuple(self._idle):
            writer.close()
        if self._handlers:
            await asyncio.gather(*tuple(self._handlers), return_exceptions=True)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if len(self._handlers) >= MAX_CONNECTIONS:
            await self._refuse(reader, writer)
            return
        task = asyncio.current_task()
        assert task is not None
        self._handlers.add(task)
        self._opened += 1
        try:
            while not self._stopping:
                try:
                    request = await self._next_request(reader, writer)
                except HttpRequestError as exc:
                    # The stream position is unknown now: answer and close.
                    await finish_response(writer, http_response(exc.status, exc.payload))
                    break
                if request is None:
                    break
                self._requests += 1
                if not await self._answer(writer, *request):
                    break
        finally:
            self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except CLIENT_GONE:  # pragma: no cover - peer raced the close
                pass

    async def _next_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> tuple[str, str, bytes, bool] | None:
        """Wait for the next request on a connection and read it.

        ``None`` means the connection is done with nothing left to
        answer: the client went away, it sent nothing for
        ``READ_TIMEOUT_S`` (hung up), or its request did not arrive in
        full within ``READ_TIMEOUT_S`` of its first byte (answered 408
        and hung up). Both deadlines are ``call_later`` timers that
        close the transport, so the pending read ends at EOF — cheaper
        than a ``wait_for`` task per request. A malformed request raises
        :class:`HttpRequestError`.
        """
        loop = asyncio.get_running_loop()
        self._idle.add(writer)
        timer = loop.call_later(READ_TIMEOUT_S, writer.close)
        try:
            first = await reader.read(1)
        except CLIENT_GONE:
            return None
        finally:
            timer.cancel()
            self._idle.discard(writer)
        if not first:
            return None
        timer = loop.call_later(READ_TIMEOUT_S, _time_out, writer)
        try:
            return await read_http_request(reader, first=first)
        except CLIENT_GONE:
            # The client vanished (or timed out) mid-request: there is
            # nobody left to answer, and the backend was never touched.
            return None
        finally:
            timer.cancel()

    async def _answer(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        body: bytes,
        close: bool,
    ) -> bool:
        """Answer one request; return whether the connection stays open."""
        try:
            status, payload = await self._respond(method, target, body)
        # repro: noqa[REP006] -- protocol edge: anything escaping a request
        # handler becomes a 500 response; a traceback must never hit the wire.
        except Exception as exc:
            status, payload = 500, {"error": f"internal error: {exc}"}
        close = close or self._stopping
        await finish_response(writer, http_response(status, payload, close), close)
        return not close

    async def _refuse(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer a connection past :data:`MAX_CONNECTIONS` with 503 and
        close it. Its request is read first: closing a socket with the
        request still unread resets it, and the reset destroys the 503
        before the client reads it."""
        self._refused += 1
        try:
            await self._next_request(reader, writer)
        except HttpRequestError:
            pass
        error = {"error": f"connection limit of {MAX_CONNECTIONS} reached"}
        await finish_response(writer, http_response(503, error))

    async def _respond(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict]:
        backend = self._backend
        if target == "/healthz" and method == "GET":
            return backend.healthz()
        if target == "/stats" and method == "GET":
            stats = backend.stats()
            stats = (await stats) if inspect.isawaitable(stats) else stats
            return 200, {
                **stats,
                "http": self._http_stats(),
                "process": process_stats(),
            }
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
            refused = token_cap_error(query)
            if refused is not None:
                return 413, {"error": refused}
            try:
                result = await backend.detect(query)
            except (ServerOverloadedError, ServerClosedError) as exc:
                return 503, {"error": str(exc)}
            except ServingError as exc:
                return 500, {"error": str(exc)}
            # A router answers with the replica's payload dict already;
            # a local service answers with a Detection.
            if not isinstance(result, dict):
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
    ``repro replica``: install the stop-signal handlers, start the
    listener, call ``ready`` (optional) with the bound port — the CLI
    prints its ready line there, tests learn an ephemeral port — wait
    for a stop signal, then stop the listener (which closes its backend,
    so in-flight work drains). The handlers go in before the listener
    starts, so a supervisor that signals as soon as it reads the ready
    line still gets a graceful stop rather than the default kill, which
    would orphan a router's replicas. The backend is closed even when
    binding fails.
    """
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    try:
        for signum in _STOP_SIGNALS:
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread or platform without signal support
        await server.start()
        if ready is not None:
            ready(server.port)
        await stop.wait()
    finally:
        await server.stop()
        for signum in _STOP_SIGNALS:
            try:
                loop.remove_signal_handler(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
