"""Open-loop HTTP/1.1 load generator: one process, one asyncio loop.

Requests are released on a precomputed schedule (offsets from the
workload seed) to at most ``connections`` concurrent connections. Each
request's latency runs from its *scheduled* time to the end of its
response, so a stall also counts against the requests queued behind
it. The generator records how late it released each request.

Connections are reused while the server keeps them open and reopened
after ``Connection: close``, so a server that adds keep-alive shows up
in latency and in ``connections_per_request`` without changes here.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from time import perf_counter

from perfbench.trace import Tracer

REQUEST_TIMEOUT_S = 10.0


class HttpError(Exception):
    """A connection or protocol failure on one exchange."""


class Connection:
    """One client connection to ``host:port``, reopened on demand."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self.opened = 0

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        """One exchange; returns (status, body)."""
        reused = self._writer is not None
        try:
            return await self._exchange(method, path, body)
        except (ConnectionError, asyncio.IncompleteReadError, HttpError):
            self.close()
            if not reused:
                raise
        # The server closed an idle kept-alive connection: retry once fresh.
        return await self._exchange(method, path, body)

    async def _exchange(self, method: str, path: str, body: bytes) -> tuple[int, bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
            self.opened += 1
        reader, writer = self._reader, self._writer
        assert reader is not None
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        writer.write(head.encode("ascii") + body)
        await writer.drain()
        status_line = await reader.readline()
        parts = status_line.split()
        if len(parts) < 2 or not parts[1].isdigit():
            raise HttpError(f"bad status line {status_line!r}")
        length, close = None, False
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        payload = await reader.readexactly(length) if length is not None else await reader.read()
        if close or length is None:
            self.close()
        return int(parts[1]), payload

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None


async def get_json(host: str, port: int, path: str) -> tuple[int, dict]:
    """One control-plane GET on its own connection."""
    connection = Connection(host, port)
    try:
        status, body = await asyncio.wait_for(
            connection.request("GET", path), REQUEST_TIMEOUT_S
        )
    finally:
        connection.close()
    return status, json.loads(body) if body else {}


async def post_json(host: str, port: int, path: str, payload: dict, timeout: float) -> tuple[int, dict]:
    """One control-plane POST on its own connection."""
    connection = Connection(host, port)
    try:
        status, body = await asyncio.wait_for(
            connection.request("POST", path, json.dumps(payload).encode("utf-8")), timeout
        )
    finally:
        connection.close()
    return status, json.loads(body) if body else {}


@dataclass
class Outcome:
    """What happened to the scheduled requests of one open-loop phase."""

    due: list[float]
    late: list[float]
    started: list[float]
    finished: list[float]
    status: list[int]
    bodies: list[bytes]
    errors: list[str] = field(default_factory=list)
    connections: int = 0

    def latencies_us(self) -> list[float]:
        return [
            (end - due) * 1e6
            for due, end, status in zip(self.due, self.finished, self.status)
            if status == 200
        ]

    @property
    def failed(self) -> int:
        return sum(1 for status in self.status if status != 200)


async def open_loop(
    host: str,
    port: int,
    offsets: list[float],
    queries: list[str],
    connections: int,
    tracer: Tracer | None = None,
    request_base: int = 0,
) -> Outcome:
    """Send ``POST /detect`` for ``queries[i]`` at ``offsets[i]`` seconds
    from now through at most ``connections`` connections. With a tracer,
    every odd-numbered request is traced (span ``loadgen.request`` and
    its children), so traced and untraced requests interleave."""
    count = len(offsets)
    bodies_out = [json.dumps({"query": q}).encode("utf-8") for q in queries]
    outcome = Outcome(
        due=[0.0] * count,
        late=[0.0] * count,
        started=[0.0] * count,
        finished=[0.0] * count,
        status=[0] * count,
        bodies=[b""] * count,
    )
    queue: asyncio.Queue[int | None] = asyncio.Queue()
    released = [0.0] * count

    async def scheduler() -> None:
        origin = perf_counter()
        for index, offset in enumerate(offsets):
            due = origin + offset
            outcome.due[index] = due
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            now = perf_counter()
            released[index] = now
            outcome.late[index] = now - due
            queue.put_nowait(index)
        for _ in range(connections):
            queue.put_nowait(None)

    async def worker() -> None:
        connection = Connection(host, port)
        try:
            while True:
                index = await queue.get()
                if index is None:
                    return
                opened = connection.opened
                outcome.started[index] = started = perf_counter()
                try:
                    status, body = await asyncio.wait_for(
                        connection.request("POST", "/detect", bodies_out[index]),
                        REQUEST_TIMEOUT_S,
                    )
                except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, HttpError) as exc:
                    connection.close()
                    status, body = -1, b""
                    outcome.errors.append(f"{type(exc).__name__}: {exc}")
                outcome.finished[index] = finished = perf_counter()
                outcome.status[index] = status
                outcome.bodies[index] = body
                if tracer is not None and index % 2 == 1:
                    request = request_base + index
                    root = tracer.add("loadgen.request", outcome.due[index], finished, request=request)
                    tracer.add("loadgen.late", outcome.due[index], released[index], root, request)
                    tracer.add("loadgen.connection_wait", released[index], started, root, request)
                    name = "http.exchange.new_connection" if connection.opened > opened else "http.exchange"
                    tracer.add(name, started, finished, root, request)
        finally:
            outcome.connections += connection.opened
            connection.close()

    await asyncio.gather(scheduler(), *(worker() for _ in range(connections)))
    return outcome
