"""Multi-replica serving: a consistent-hash front door over N replicas.

One :class:`Router` process owns the outward HTTP surface — it is a
backend of the one :class:`~repro.serving.http.DetectionHTTPServer`,
so ``POST /detect`` / ``POST /reload`` / ``GET /healthz`` / ``GET
/stats`` are byte-identical to the single-process server's — and
forwards each query inward over the length-prefixed socket protocol
(:mod:`repro.serving.replica`) to one of N replica processes. Its
backend verbs differ in two answers only: ``/healthz`` is ``503`` when
no replica is up, and ``/reload`` is ``502`` when none reloaded. Three
design decisions carry the architecture:

- **Consistent hashing for cache affinity.** Queries are normalized with
  the same :func:`~repro.text.normalizer.normalize_fast` the service
  uses as its cache key, then placed on a :class:`ConsistentHashRing`
  (crc32, virtual nodes). The same query always lands on the same
  replica, so each replica's result cache sees a stable slice of the
  query distribution and stays hot — N replicas give ~N disjoint caches,
  not N copies of the same cold one. When a replica dies, only its arc
  of the ring re-routes (ring order, next live node); the others keep
  their hit rates.
- **One mmap'd snapshot, shared pages.** Every replica loads the *same*
  ``HDMSNAP1`` file via :meth:`CompiledDetector.load_snapshot`; the
  kernel shares the read-only pages across processes, so fleet memory is
  ~one model plus per-replica caches.
- **Tiered load shedding.** Tier 1: router admission (``max_inflight``
  concurrent requests, then :class:`~repro.errors.ServerOverloadedError`
  → 503 + ``Retry-After`` without touching any replica). Tier 2: the
  chosen replica's own admission control (its ``overloaded`` frame is
  surfaced as the same 503 — deliberately *not* retried elsewhere, which
  would stampede the next replica's cold cache). Tier 3: no live
  replica → 503. Backpressure is deterministic at every tier.

Health is actively managed: a background loop probes each replica over
its multiplexed connection, marks non-responders ``down`` (their ring
arc re-routes), restarts managed subprocesses with ``generation + 1``
(up to ``MAX_RESTARTS``, spaced by seeded-jitter exponential backoff so
a crash-looping replica can never restart-storm the host), and
reattaches externally-managed replicas when they come back. ``GET
/stats`` aggregates the fleet: per-stage latency histograms merge
bucket-wise (:meth:`~repro.serving.metrics.LatencyHistogram.merged`),
cache and batch counters sum, and every replica reports its generation,
*model* generation, and health.

Two policies ride on the router's own rotating-window metrics
(:mod:`repro.serving.metrics`):

- **Bounded tail hedging.** When the owner replica's windowed p99
  exceeds ``hedge_p99_us``, a request that has waited longer than the
  fleet's windowed p95 fires one backup request to the next ring node;
  first response wins and the loser is cancelled. Fired hedges are
  capped by ``hedge_rate`` of the recent request window, so hedging can
  cut a straggler's tail without meaningfully raising backend load
  (``hedges_fired`` / ``hedges_won`` / ``hedges_suppressed`` count it).
- **Cache warm-up.** A replica rejoining the fleet replays a live
  sibling's hottest result-cache keys (the replica ``cache_keys`` op)
  through its own detector *before* it is marked ``up``, so the arc it
  takes back starts warm instead of stampeding a cold cache.

Deploys are zero-downtime: ``POST /reload`` (:meth:`Router.reload`)
rolls the fleet onto a new snapshot one replica at a time — each
replica hot-swaps in place (in-flight detections finish on its old
model) before the next is touched, so the fleet never drops below N-1
serving replicas, and restarts spawned afterwards load the new file.

``repro route`` starts a router over a fixed number of replicas and
serves it with :func:`~repro.serving.http.run_server`.
"""

from __future__ import annotations

import asyncio
import random
import re
import sys
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import Sequence
from zlib import crc32

from repro.errors import (
    ReplicaProtocolError,
    ReplicaUnavailableError,
    ServerClosedError,
    ServerOverloadedError,
    ServingError,
)
from repro.runtime.snapshot_header import read_snapshot_header
from repro.serving.metrics import LatencyHistogram, ServingMetrics
from repro.serving.replica import encode_frame, read_frame
from repro.text.normalizer import normalize_fast

#: The ready line a spawned replica prints; the router parses it to
#: learn the ephemeral port a ``--port 0`` replica bound.
READY_LINE = re.compile(rb"replica listening on ([0-9.]+):(\d+)")

#: How long a replica that closed its stdout before the ready line gets
#: to exit, so the spawn error can report its exit code.
_EXIT_WAIT_S = 2.0

#: Virtual nodes per replica on the hash ring: more vnodes, smoother key
#: distribution.
VNODES = 64

#: How long one forwarded detect (or reload) may take before its replica
#: is declared unavailable.
REQUEST_TIMEOUT_S = 30.0

#: Deadline of one health probe, ``stats`` fetch or warm-up key fetch.
HEALTH_TIMEOUT_S = 5.0

#: How long a spawned replica may take to print its ready line.
SPAWN_TIMEOUT_S = 120.0

#: Restarts per managed replica before it is declared ``failed`` and left
#: out of the ring for good.
MAX_RESTARTS = 3

#: Restart pacing. The first recovery attempt after a replica goes down
#: is immediate; consecutive failures back off exponentially from the
#: base to the cap, stretched by up to ``RESTART_JITTER`` of jitter drawn
#: from a ``BACKOFF_SEED``-seeded generator, so N crash-looping replicas
#: never restart in lockstep.
RESTART_BACKOFF_BASE_S = 0.5
RESTART_BACKOFF_MAX_S = 30.0
RESTART_JITTER = 0.25
BACKOFF_SEED = 0

#: Cap on one replica's warm-up replay; on timeout the replica joins with
#: whatever heat it got.
WARMUP_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class RouterConfig:
    """Router policy knobs (the fleet-level twin of
    :class:`~repro.serving.service.ServingConfig`); the fixed timeouts and
    restart pacing are the module constants above.

    - ``max_inflight``: tier-1 admission — concurrent requests the
      router accepts before shedding with 503.
    - ``health_interval_s``: background probe cadence.
    - ``hedge_p99_us``: windowed per-replica p99 (µs) above which the
      router arms tail hedging for that replica's keys (0 disables).
    - ``hedge_rate``: cap on fired hedges as a fraction of the recent
      request window — the "bounded" in bounded hedging.
    - ``hedge_min_delay_us``: floor on the hedge delay, so an idle
      window (p95 ~ 0) cannot make every request hedge instantly.
    - ``warmup_keys``: hottest sibling cache keys replayed through a
      joining replica before it takes traffic (0 disables warm-up).
    """

    max_inflight: int = 1024
    health_interval_s: float = 1.0
    hedge_p99_us: float = 0.0
    hedge_rate: float = 0.05
    hedge_min_delay_us: float = 1_000.0
    warmup_keys: int = 256

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ServingError(
                f"max_inflight must be positive, got {self.max_inflight}"
            )
        if not 0.0 <= self.hedge_rate <= 1.0:
            raise ServingError(
                f"hedge_rate must be within [0, 1], got {self.hedge_rate}"
            )
        if self.hedge_p99_us < 0 or self.hedge_min_delay_us < 0:
            raise ServingError("hedge thresholds must be >= 0")
        if self.warmup_keys < 0:
            raise ServingError(
                f"warmup_keys must be >= 0, got {self.warmup_keys}"
            )


class ConsistentHashRing:
    """A crc32 consistent-hash ring with virtual nodes.

    A key (the :func:`~repro.text.normalizer.normalize_fast` form a
    replica's result cache is keyed by) maps to the first node point at
    or after ``crc32(key)`` on the ring, so the mapping is stable across
    processes and across restarts, and dropping one node from the ``up``
    set only remaps that node's arcs. ``vnodes`` points per node smooth
    the arc sizes.

    >>> ring = ConsistentHashRing(["r0", "r1"])
    >>> ring.node_for("cheap hotels in rome") in {"r0", "r1"}
    True
    """

    def __init__(self, nodes: Sequence[str] = (), vnodes: int = VNODES) -> None:
        if vnodes < 1:
            raise ServingError(f"vnodes must be positive, got {vnodes}")
        self._vnodes = vnodes
        self._points: list[tuple[int, str]] = []
        self._hashes: list[int] = []
        self._nodes: list[str] = []
        for node in nodes:
            self.add(node)

    def add(self, node: str) -> None:
        """Place ``node`` on the ring (``vnodes`` points)."""
        if node in self._nodes:
            raise ServingError(f"node {node!r} is already on the ring")
        self._nodes.append(node)
        for vnode in range(self._vnodes):
            point = crc32(f"{node}#{vnode}".encode("utf-8"))
            self._points.append((point, node))
        self._points.sort()
        self._hashes = [point for point, _ in self._points]

    def node_for(self, key: str, up: Sequence[str] | None = None) -> str | None:
        """The node owning ``key`` — the first (ring-order) node whose
        point is at or after ``crc32(key)``, restricted to ``up`` when
        given. ``None`` when the ring (or ``up``) is empty."""
        for node in self.nodes_for(key, up):
            return node
        return None

    def nodes_for(self, key: str, up: Sequence[str] | None = None):
        """Distinct candidate nodes for ``key`` in ring order (the
        failover sequence: the first entry is :meth:`node_for`; each
        later entry is the next arc a dying replica's keys spill onto).
        Yields nothing when the ring (or ``up``) is empty."""
        if not self._points:
            return
        allowed = None if up is None else set(up)
        start = bisect_right(self._hashes, crc32(key.encode("utf-8")))
        seen: set[str] = set()
        for offset in range(len(self._points)):
            _, node = self._points[(start + offset) % len(self._points)]
            if node in seen:
                continue
            seen.add(node)
            if allowed is None or node in allowed:
                yield node


class ReplicaClient:
    """A multiplexing client for one replica's socket protocol.

    The client half of :class:`~repro.serving.replica.ReplicaServer`:
    one persistent connection carries many concurrent requests, matched
    by an ``"id"`` this client assigns and the replica echoes. A reader
    task resolves pending futures as response frames arrive; when the
    connection dies (EOF, reset, protocol violation), every pending
    request fails with :class:`~repro.errors.ReplicaUnavailableError`
    so the router can re-route — no caller is left hanging.
    """

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[str, asyncio.Future] = {}
        self._write_lock = asyncio.Lock()
        self._next_id = 0
        self._connected = False

    @property
    def connected(self) -> bool:
        """True while the connection is believed usable."""
        return self._connected

    async def connect(self) -> None:
        """Open the connection and start the response reader."""
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )
        self._connected = True
        self._reader_task = asyncio.create_task(self._read_loop())

    async def request(self, payload: dict, timeout: float | None = None) -> dict:
        """Send one frame and await its matched response frame.

        Raises :class:`~repro.errors.ReplicaUnavailableError` when the
        connection is down, dies mid-request, or ``timeout`` elapses —
        the caller's cue to re-route or answer 503.
        """
        if not self._connected or self._writer is None:
            raise ReplicaUnavailableError(
                f"replica {self._host}:{self._port} is not connected"
            )
        self._next_id += 1
        request_id = str(self._next_id)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        frame = encode_frame({**payload, "id": request_id})
        try:
            async with self._write_lock:  # frames must not interleave
                self._writer.write(frame)
                await self._writer.drain()
        except ConnectionError as exc:
            self._fail_pending(
                ReplicaUnavailableError(
                    f"replica {self._host}:{self._port} connection died: {exc}"
                )
            )
            raise ReplicaUnavailableError(
                f"replica {self._host}:{self._port} connection died: {exc}"
            ) from exc
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            self._pending.pop(request_id, None)
            raise ReplicaUnavailableError(
                f"replica {self._host}:{self._port} did not answer "
                f"within {timeout}s"
            ) from None

    async def close(self) -> None:
        """Drop the connection; pending requests fail as unavailable."""
        self._connected = False
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - peer raced close
                pass
        self._fail_pending(
            ReplicaUnavailableError(
                f"replica {self._host}:{self._port} connection closed"
            )
        )

    async def _read_loop(self) -> None:
        assert self._reader is not None
        failure: Exception | None = None
        try:
            while True:
                try:
                    response = await read_frame(self._reader)
                except (
                    ReplicaProtocolError,
                    asyncio.IncompleteReadError,
                    ConnectionError,
                ) as exc:
                    failure = exc
                    break
                if response is None:
                    break
                future = self._pending.pop(str(response.get("id")), None)
                if future is None:
                    # A response nothing waits for: the protocol is out
                    # of sync; poison the connection rather than guess.
                    failure = ReplicaProtocolError(
                        f"replica {self._host}:{self._port} answered "
                        f"unknown request id {response.get('id')!r}"
                    )
                    break
                if not future.cancelled():
                    future.set_result(response)
        finally:
            self._connected = False
            self._fail_pending(
                ReplicaUnavailableError(
                    f"replica {self._host}:{self._port} connection lost"
                    + (f": {failure}" if failure else "")
                )
            )

    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)


class ReplicaHandle:
    """One replica slot as the router sees it: address, connection,
    process (when router-spawned), and lifecycle state.

    The fleet-side record of one
    :class:`~repro.serving.replica.ReplicaServer`. States: ``starting``
    (spawned, not yet serving) → ``warming`` (connected, replaying a
    sibling's hot cache keys) → ``up`` (taking traffic) ⇄ ``down``
    (probe failed or process exited; its ring arc re-routes while the
    health loop restarts or reattaches it, pacing repeated failures
    with exponential backoff) → ``failed`` (managed replica out of
    restart budget; left out of the ring for good).
    """

    def __init__(self, name: str, replica_id: int) -> None:
        self.name = name
        self.replica_id = replica_id
        self.host: str = "127.0.0.1"
        self.port: int = 0
        self.generation = 0
        self.model_generation = 0
        self.state = "starting"
        self.restarts = 0
        self.managed = False
        self.last_error = ""
        self.inflight = 0
        self.backoff_attempts = 0
        self.next_restart_at = 0.0
        self.client: ReplicaClient | None = None
        self.process: asyncio.subprocess.Process | None = None
        self._drain_task: asyncio.Task | None = None

    def describe(self) -> dict:
        """This slot's health record for ``/healthz`` and ``/stats``."""
        return {
            "state": self.state,
            "generation": self.generation,
            "model_generation": self.model_generation,
            "restarts": self.restarts,
            "managed": self.managed,
            "address": f"{self.host}:{self.port}",
            "last_error": self.last_error,
            "inflight": self.inflight,
        }


class Router:
    """The consistent-hash front door over a fleet of replicas.

    The multi-process counterpart of
    :class:`~repro.serving.service.DetectionService`: the same
    ``await router.detect(text)`` contract (and the same
    :class:`~repro.errors.ServerOverloadedError` /
    :class:`~repro.errors.ServerClosedError` semantics), but each query
    is forwarded to the replica that owns its normalized form on the
    hash ring. See the module docstring for the architecture.

    Replicas are populated either by :meth:`spawn` (subprocesses the
    router manages and restarts) or :meth:`attach` (addresses of
    externally-run ``repro replica`` processes); then :meth:`start`
    connects the fleet and begins health probing.
    """

    def __init__(self, config: RouterConfig | None = None) -> None:
        self._config = config or RouterConfig()
        self._clock = monotonic
        self._metrics = ServingMetrics()
        self._replicas: dict[str, ReplicaHandle] = {}
        self._ring = ConsistentHashRing()
        self._spawn_command: list[str] | None = None
        self._inflight = 0
        self._closed = False
        self._started = False
        self._health_task: asyncio.Task | None = None
        self._restart_lock = asyncio.Lock()
        self._rng = random.Random(BACKOFF_SEED)
        # Pre-register the control-plane counters so /stats (and the CI
        # smoke grepping it) always shows them, even before any fires.
        for name in (
            "shed",
            "reroutes",
            "restarts",
            "unrouted",
            "hedges_fired",
            "hedges_won",
            "hedges_suppressed",
            "warmed_keys",
        ):
            self._metrics.counter(name)

    @property
    def config(self) -> RouterConfig:
        """The policy this router was built with."""
        return self._config

    @property
    def metrics(self) -> ServingMetrics:
        """The router's own metrics registry (stages ``request`` /
        ``forward`` / per-replica ``forward.<name>``; counters ``shed``
        / ``reroutes`` / ``restarts`` / ``unrouted`` plus hedging's
        ``hedges_fired`` / ``hedges_won`` / ``hedges_suppressed`` and
        warm-up's ``warmed_keys``)."""
        return self._metrics

    @property
    def closed(self) -> bool:
        """True once shutdown has begun (routers don't reopen)."""
        return self._closed

    @property
    def replicas(self) -> tuple[ReplicaHandle, ...]:
        """The fleet's replica handles, in ring insertion order."""
        return tuple(self._replicas.values())

    # ------------------------------------------------------------------
    # fleet population
    # ------------------------------------------------------------------
    def attach(self, host: str, port: int, name: str | None = None) -> ReplicaHandle:
        """Register an externally-managed replica at ``host:port``.

        The router connects and health-checks it but never restarts it;
        when it dies its ring arc re-routes until it comes back and the
        health loop reattaches. Call before :meth:`start`."""
        handle = self._new_handle(name)
        handle.host = host
        handle.port = port
        handle.managed = False
        return handle

    def spawn(
        self,
        snapshot_path: str,
        count: int,
        host: str = "127.0.0.1",
        extra_args: Sequence[str] = (),
    ) -> list[ReplicaHandle]:
        """Register ``count`` router-managed replica slots, each to be
        spawned as ``python -m repro.cli replica --snapshot ... --port 0``
        (plus ``extra_args``, e.g. serving knobs) by :meth:`start`.

        Every subprocess mmaps the *same* snapshot file, so the model's
        pages are shared kernel page cache, not ``count`` copies."""
        if count < 1:
            raise ServingError(f"need at least one replica, got {count}")
        self._spawn_command = [
            sys.executable,
            "-m",
            "repro.cli",
            "replica",
            "--snapshot",
            snapshot_path,
            "--host",
            host,
            "--port",
            "0",
            *extra_args,
        ]
        handles = []
        for _ in range(count):
            handle = self._new_handle(None)
            handle.host = host
            handle.managed = True
            handles.append(handle)
        return handles

    def _new_handle(self, name: str | None) -> ReplicaHandle:
        if self._started:
            raise ServingError("cannot add replicas after start()")
        replica_id = len(self._replicas)
        handle = ReplicaHandle(name or f"r{replica_id}", replica_id)
        if handle.name in self._replicas:
            raise ServingError(f"duplicate replica name {handle.name!r}")
        self._replicas[handle.name] = handle
        self._ring.add(handle.name)
        return handle

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bring the fleet up: spawn/connect every replica, then start
        the background health loop. Raises
        :class:`~repro.errors.ServingError` when no replica comes up."""
        if not self._replicas:
            raise ServingError("router has no replicas; spawn() or attach() first")
        self._started = True
        for handle in self._replicas.values():
            try:
                if handle.managed:
                    await self._spawn_one(handle)
                else:
                    await self._connect_one(handle)
            except (ReplicaUnavailableError, OSError) as exc:
                handle.state = "down"
                handle.last_error = str(exc)
        if not any(h.state == "up" for h in self._replicas.values()):
            await self.close()
            raise ServingError(
                "no replica came up: "
                + "; ".join(
                    f"{h.name}: {h.last_error}" for h in self._replicas.values()
                )
            )
        self._health_task = asyncio.create_task(self._health_loop())

    async def close(self) -> None:
        """Drain and shut the fleet down: stop health probing, close
        every connection, SIGTERM managed subprocesses (their replica
        drain handles in-flight work), and reap them. Idempotent."""
        if self._closed and self._health_task is None:
            return
        self._closed = True
        task, self._health_task = self._health_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        for handle in self._replicas.values():
            client, handle.client = handle.client, None
            if client is not None:
                await client.close()
            if handle._drain_task is not None:
                handle._drain_task.cancel()
                handle._drain_task = None
            process, handle.process = handle.process, None
            if process is not None and process.returncode is None:
                process.terminate()
                try:
                    await asyncio.wait_for(process.wait(), 10.0)
                except asyncio.TimeoutError:  # pragma: no cover - hung child
                    process.kill()
                    await process.wait()
            if handle.state != "failed":
                handle.state = "down"

    async def __aenter__(self) -> "Router":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    async def detect(self, text: str) -> dict:
        """Route ``text`` to its replica; return the detection payload
        (the ``repro detect --json`` shape, bit-identical to a local
        ``detector.detect``).

        Raises :class:`~repro.errors.ServerOverloadedError` at any shed
        tier (router admission, replica admission, no live replica) and
        :class:`~repro.errors.ServerClosedError` after shutdown began.
        """
        if self._closed:
            raise ServerClosedError("router is closed")
        if self._inflight >= self._config.max_inflight:
            self._metrics.counter("shed").add()
            raise ServerOverloadedError(
                f"router is at capacity ({self._config.max_inflight} requests "
                "in flight); shed load or retry with backoff"
            )
        self._inflight += 1
        start = perf_counter()
        try:
            return await self._forward(text)
        finally:
            self._inflight -= 1
            self._metrics.observe("request", perf_counter() - start)

    async def _forward(self, text: str) -> dict:
        key = normalize_fast(text)
        tried: list[str] = []
        rerouted = False
        first_attempt = True
        for name in self._ring.nodes_for(key):
            handle = self._replicas.get(name)
            if handle is None or handle.state != "up" or handle.client is None:
                continue
            if rerouted:
                self._metrics.counter("reroutes").add()
            backup = None
            if first_attempt and self._should_hedge(handle):
                backup = self._next_up(key, exclude=name)
            first_attempt = False
            try:
                if backup is not None:
                    response = await self._hedged_request(handle, backup, text)
                else:
                    response = await self._request_replica(handle, text)
            except ReplicaUnavailableError as exc:
                self._mark_down(handle, str(exc))
                tried.append(name)
                rerouted = True
                continue
            if response.get("ok"):
                result = response.get("result")
                if not isinstance(result, dict):  # pragma: no cover
                    raise ReplicaProtocolError(
                        f"replica {name} returned a malformed result"
                    )
                return result
            kind = response.get("kind")
            error = str(response.get("error", "replica error"))
            if kind == "overloaded":
                # Tier-2 shed: the owning replica is saturated. Honor
                # its backpressure instead of stampeding a neighbour's
                # cold cache with this key's traffic.
                self._metrics.counter("shed").add()
                raise ServerOverloadedError(error)
            if kind == "closed":
                self._mark_down(handle, error)
                tried.append(name)
                rerouted = True
                continue
            raise ServingError(f"replica {name}: {error}")
        self._metrics.counter("unrouted").add()
        detail = f" (tried {', '.join(tried)})" if tried else ""
        raise ServerOverloadedError(f"no replica available{detail}")

    async def _request_replica(self, handle: ReplicaHandle, text: str) -> dict:
        """One detect forward to one replica, timed into the shared
        ``forward`` stage and the replica's own ``forward.<name>`` stage
        (whose windowed p99 is the hedge trigger)."""
        client = handle.client
        if client is None:
            raise ReplicaUnavailableError(f"replica {handle.name} has no client")
        handle.inflight += 1
        start = perf_counter()
        try:
            return await client.request(
                {"op": "detect", "query": text},
                timeout=REQUEST_TIMEOUT_S,
            )
        finally:
            handle.inflight -= 1
            elapsed = perf_counter() - start
            self._metrics.observe("forward", elapsed)
            self._metrics.observe(f"forward.{handle.name}", elapsed)

    def _next_up(self, key: str, exclude: str) -> ReplicaHandle | None:
        """The next live replica after ``exclude`` in ``key``'s ring
        order — the hedge target (and the arc the key would fail over
        to anyway if its owner died)."""
        for name in self._ring.nodes_for(key):
            if name == exclude:
                continue
            handle = self._replicas.get(name)
            if handle is not None and handle.state == "up" and handle.client is not None:
                return handle
        return None

    def _should_hedge(self, owner: ReplicaHandle) -> bool:
        """Arm hedging for this request? Only when enabled and the
        owner's recent (windowed) p99 is over the configured budget —
        a healthy replica's keys never pay hedging overhead."""
        if self._config.hedge_p99_us <= 0:
            return False
        owner_p99 = self._metrics.stage(
            f"forward.{owner.name}"
        ).window_stats()["p99_us"]
        return owner_p99 > self._config.hedge_p99_us

    def _hedge_budget_ok(self) -> bool:
        """May one more hedge fire? Fired hedges are capped at
        ``hedge_rate`` of the recent request window (floored at 20
        requests so a quiet window still allows an occasional hedge)."""
        window_requests = self._metrics.stage("request").window_stats()["count"]
        fired = self._metrics.counter("hedges_fired").window_count()
        return fired < self._config.hedge_rate * max(window_requests, 20)

    async def _hedged_request(
        self, owner: ReplicaHandle, backup: ReplicaHandle, text: str
    ) -> dict:
        """Race the owner against one delayed backup; first response
        wins, the loser is cancelled (its response frame, if any, is
        discarded by the client's cancelled-future path).

        The hedge fires only after the owner has been silent for the
        fleet's windowed p95 (floored at ``hedge_min_delay_us``) *and*
        the hedge budget allows it — so fast owner responses, which are
        the common case even on a degraded replica, cost nothing. The
        owner's frame always outranks the backup's unless the backup
        answered ``ok`` first: a backup's shed/closed frame must never
        mask the owner's answer, and vice versa an owner failure with a
        healthy backup response is a hedge win, not an error.
        """
        owner_task = asyncio.create_task(self._request_replica(owner, text))
        delay_s = (
            max(
                self._metrics.stage("forward").window_stats()["p95_us"],
                self._config.hedge_min_delay_us,
            )
            / 1e6
        )
        await asyncio.wait({owner_task}, timeout=delay_s)
        if owner_task.done():
            return await owner_task  # fast path: hedge never fired
        if not self._hedge_budget_ok():
            self._metrics.counter("hedges_suppressed").add()
            return await owner_task
        self._metrics.counter("hedges_fired").add()
        backup_task = asyncio.create_task(self._request_replica(backup, text))
        tasks: set[asyncio.Task] = {owner_task, backup_task}
        owner_exc: BaseException | None = None
        while tasks:
            done, _ = await asyncio.wait(
                tasks, return_when=asyncio.FIRST_COMPLETED
            )
            tasks -= done
            # Settle the owner first on a photo finish: its frame
            # carries the canonical backpressure semantics for the key.
            for task in sorted(done, key=lambda t: t is not owner_task):
                exc = task.exception()
                if task is owner_task:
                    if exc is None:
                        for loser in tasks:
                            loser.cancel()
                        return owner_task.result()
                    owner_exc = exc
                elif exc is None and task.result().get("ok"):
                    for loser in tasks:
                        loser.cancel()
                    self._metrics.counter("hedges_won").add()
                    if owner_exc is not None:
                        self._mark_down(owner, str(owner_exc))
                    return task.result()
                # else: backup died or shed — discard it silently and
                # let the owner (or the failover loop) decide the fate.
        assert owner_exc is not None
        raise owner_exc

    # ------------------------------------------------------------------
    # hot swap
    # ------------------------------------------------------------------
    async def reload(self, snapshot_path: str) -> tuple[int, dict]:
        """Roll the fleet onto the snapshot at ``snapshot_path``, one
        replica at a time (zero-downtime deploy).

        The rolling order is the guarantee: each replica hot-swaps via
        its ``reload`` op (in-flight detections finish on its old model)
        and answers before the next one is touched, so the fleet is
        never below N-1 serving replicas, and no request is dropped. The
        snapshot header is validated locally first — a bad file is
        refused before any replica is disturbed — and the spawn command
        is repointed so replicas restarted later come up on the *new*
        snapshot, not the old one.

        Returns ``(status, {"snapshot", "reloaded", "replicas": {name:
        {...}}})`` — the ``POST /reload`` answer, ``502`` when no
        replica reloaded. A replica that is down (or refuses the swap)
        is reported, not retried — the health loop owns bringing it
        back, and when it is managed its restart now loads the new
        snapshot anyway.
        """
        if self._closed:
            raise ServerClosedError("router is closed")
        # Refuse bad files up front; header validation opens and reads
        # the snapshot, so it runs off-loop (REP008).
        await asyncio.get_running_loop().run_in_executor(
            None, read_snapshot_header, snapshot_path
        )
        path = str(snapshot_path)
        async with self._restart_lock:  # don't race health-loop restarts
            if self._spawn_command is not None:
                anchor = self._spawn_command.index("--snapshot")
                self._spawn_command[anchor + 1] = path
            results: dict[str, dict] = {}
            for name, handle in self._replicas.items():
                if handle.state != "up" or handle.client is None:
                    results[name] = {
                        "ok": False,
                        "error": f"replica is {handle.state}",
                    }
                    continue
                try:
                    response = await handle.client.request(
                        {"op": "reload", "snapshot": path},
                        timeout=REQUEST_TIMEOUT_S,
                    )
                except ReplicaUnavailableError as exc:
                    self._mark_down(handle, str(exc))
                    results[name] = {"ok": False, "error": str(exc)}
                    continue
                if response.get("ok"):
                    model_generation = response.get("model_generation")
                    if isinstance(model_generation, int):
                        handle.model_generation = model_generation
                    results[name] = {
                        "ok": True,
                        "model_generation": handle.model_generation,
                    }
                else:
                    results[name] = {
                        "ok": False,
                        "error": str(response.get("error", "replica error")),
                    }
        reloaded = sum(1 for entry in results.values() if entry["ok"])
        payload = {"snapshot": path, "reloaded": reloaded, "replicas": results}
        return (200 if reloaded else 502), payload

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def healthz(self) -> tuple[int, dict]:
        """The router's local view of fleet health (no replica I/O), as
        the ``GET /healthz`` answer: ``ok`` when every replica is up,
        ``degraded`` when some are, ``down`` when none is; the HTTP status
        is ``503`` whenever no replica is up."""
        states = {name: h.state for name, h in self._replicas.items()}
        up = sum(1 for state in states.values() if state == "up")
        if self._closed:
            status = "closed"
        elif up == 0:
            status = "down"
        elif up == len(states):
            status = "ok"
        else:
            status = "degraded"
        return (200 if up else 503), {"status": status, "up": up, "replicas": states}

    async def check_health(self) -> None:
        """Probe every replica once: mark non-responders down, restart
        managed subprocesses (``generation + 1``, bounded by
        ``MAX_RESTARTS``), reconnect attached replicas that came back.
        The health loop calls this every ``health_interval_s``; tests
        call it directly for determinism."""
        async with self._restart_lock:
            for handle in self._replicas.values():
                await self._check_one(handle)

    async def _check_one(self, handle: ReplicaHandle) -> None:
        if handle.state == "failed" or self._closed:
            return
        process = handle.process
        if process is not None and process.returncode is not None:
            self._mark_down(
                handle, f"process exited with code {process.returncode}"
            )
            handle.process = None
        if handle.state == "up" and handle.client is not None:
            try:
                response = await handle.client.request(
                    {"op": "health"}, timeout=HEALTH_TIMEOUT_S
                )
            except ReplicaUnavailableError as exc:
                self._mark_down(handle, str(exc))
            else:
                status = response.get("status")
                if status != "ok":
                    self._mark_down(handle, f"replica reports {status!r}")
        if handle.state != "down":
            return
        if self._clock() < handle.next_restart_at:
            return  # still backing off after a failed recovery attempt
        if handle.managed:
            if handle.restarts >= MAX_RESTARTS:
                handle.state = "failed"
                return
            handle.restarts += 1
            self._metrics.counter("restarts").add()
            try:
                await self._spawn_one(handle)
            except (ReplicaUnavailableError, OSError) as exc:
                handle.state = "down"
                handle.last_error = str(exc)
                self._schedule_backoff(handle)
        else:
            try:
                await self._connect_one(handle)
            except (ReplicaUnavailableError, OSError) as exc:
                handle.last_error = str(exc)
                self._schedule_backoff(handle)

    def _schedule_backoff(self, handle: ReplicaHandle) -> None:
        """Pace the *next* recovery attempt after this one failed.

        The first retry is free (transient blips recover on the next
        probe, as before); each consecutive failure then doubles the
        wait from ``RESTART_BACKOFF_BASE_S`` up to
        ``RESTART_BACKOFF_MAX_S``, stretched by up to ``RESTART_JITTER``
        of seeded (deterministic per router) jitter so a fleet of
        crash-looping replicas de-synchronizes instead of thundering."""
        handle.backoff_attempts += 1
        if handle.backoff_attempts < 2:
            return
        delay = min(
            RESTART_BACKOFF_BASE_S * 2 ** (handle.backoff_attempts - 2),
            RESTART_BACKOFF_MAX_S,
        )
        delay *= 1.0 + RESTART_JITTER * self._rng.random()
        handle.next_restart_at = self._clock() + delay

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self._config.health_interval_s)
            await self.check_health()

    def _mark_down(self, handle: ReplicaHandle, reason: str) -> None:
        handle.state = "down"
        handle.last_error = reason
        client, handle.client = handle.client, None
        if client is not None:
            # Fire-and-forget: close() only fails pending futures and
            # drops the socket; nothing awaits the outcome.
            asyncio.create_task(client.close())

    # ------------------------------------------------------------------
    # spawning / connecting
    # ------------------------------------------------------------------
    async def _spawn_one(self, handle: ReplicaHandle) -> None:
        assert self._spawn_command is not None, "spawn() builds the command"
        handle.generation += 1
        handle.state = "starting"
        if handle._drain_task is not None:
            handle._drain_task.cancel()
            handle._drain_task = None
        command = self._spawn_command + [
            "--replica-id",
            str(handle.replica_id),
            "--generation",
            str(handle.generation),
        ]
        process = await asyncio.create_subprocess_exec(
            *command, stdout=asyncio.subprocess.PIPE
        )
        handle.process = process
        try:
            handle.host, handle.port = await asyncio.wait_for(
                _await_ready_line(process), SPAWN_TIMEOUT_S
            )
        except (asyncio.TimeoutError, ReplicaUnavailableError) as exc:
            if process.returncode is None:
                process.terminate()
                await process.wait()
            handle.process = None
            raise ReplicaUnavailableError(
                f"replica {handle.name} (gen {handle.generation}) never "
                f"became ready: {exc}"
            ) from exc
        # Keep the child's stdout drained so it can never block on a
        # full pipe; the task dies with the stream at process exit.
        handle._drain_task = asyncio.create_task(_drain_stream(process.stdout))
        await self._connect_one(handle)

    async def _connect_one(self, handle: ReplicaHandle) -> None:
        client = ReplicaClient(handle.host, handle.port)
        await client.connect()
        response = await client.request(
            {"op": "health"}, timeout=HEALTH_TIMEOUT_S
        )
        if response.get("status") != "ok":
            await client.close()
            raise ReplicaUnavailableError(
                f"replica {handle.name} reports {response.get('status')!r}"
            )
        generation = response.get("generation")
        if isinstance(generation, int):
            handle.generation = generation
        model_generation = response.get("model_generation")
        if isinstance(model_generation, int):
            handle.model_generation = model_generation
        handle.client = client
        handle.state = "warming"
        await self._warm_up(handle)
        handle.state = "up"
        handle.last_error = ""
        handle.backoff_attempts = 0
        handle.next_restart_at = 0.0

    async def _warm_up(self, handle: ReplicaHandle) -> int:
        """Replay a live sibling's hottest result-cache keys through
        ``handle``'s own detector before it takes traffic, so the ring
        arc it is about to own starts with a warm cache instead of a
        cold-start stampede. Only keys the full ring assigns to this
        replica are replayed — heat for arcs it will never serve is
        wasted work. Best-effort by design: no donor, a dead donor, or
        the ``WARMUP_TIMEOUT_S`` deadline just means joining colder;
        returns the number of keys actually warmed (also summed into
        the ``warmed_keys`` counter)."""
        if self._config.warmup_keys < 1 or handle.client is None:
            return 0
        donor = next(
            (
                h
                for h in self._replicas.values()
                if h is not handle and h.state == "up" and h.client is not None
            ),
            None,
        )
        if donor is None or donor.client is None:
            return 0
        try:
            response = await donor.client.request(
                {"op": "cache_keys", "n": self._config.warmup_keys},
                timeout=HEALTH_TIMEOUT_S,
            )
        except ReplicaUnavailableError:
            return 0
        keys = response.get("keys") if response.get("ok") else None
        if not isinstance(keys, list):
            return 0
        mine = [
            key
            for key in keys
            if isinstance(key, str) and self._ring.node_for(key) == handle.name
        ]
        if not mine:
            return 0
        client = handle.client
        warmed = 0

        async def replay() -> None:
            nonlocal warmed
            results = await asyncio.gather(
                *(
                    client.request(
                        {"op": "detect", "query": key},
                        timeout=REQUEST_TIMEOUT_S,
                    )
                    for key in mine
                ),
                return_exceptions=True,
            )
            warmed = sum(
                1
                for result in results
                if isinstance(result, dict) and result.get("ok")
            )

        try:
            await asyncio.wait_for(replay(), WARMUP_TIMEOUT_S)
        except (asyncio.TimeoutError, ReplicaUnavailableError):
            pass  # join colder; the cache fills from live traffic anyway
        self._metrics.counter("warmed_keys").add(warmed)
        return warmed

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    async def stats(self) -> dict:
        """The aggregated fleet picture for ``GET /stats``:

        - ``router`` — this process: replica/up counts, in-flight,
          its own stage histograms (``request``, ``forward``,
          per-replica ``forward.<name>``) and counters (``shed``,
          ``reroutes``, ``restarts``, ``unrouted``, the hedging and
          warm-up counters), each stage carrying a last-window summary
          and each counter a ``counter_windows`` entry.
        - ``replicas`` — per replica: state, generation, restarts,
          address, last error, and (when up) its full service stats.
        - ``fleet`` — the replicas merged: summed request/cache/batch
          counters, overall cache hit rate, bucket-wise merged stage
          histograms (fleet-wide p50/p95/p99 via
          :meth:`~repro.serving.metrics.LatencyHistogram.merged`).
        """
        replicas: dict[str, dict] = {}
        fleet_inputs: list[dict] = []
        for name, handle in self._replicas.items():
            entry = handle.describe()
            if handle.state == "up" and handle.client is not None:
                try:
                    response = await handle.client.request(
                        {"op": "stats"}, timeout=HEALTH_TIMEOUT_S
                    )
                except ReplicaUnavailableError as exc:
                    self._mark_down(handle, str(exc))
                    entry = handle.describe()
                else:
                    stats = response.get("stats")
                    if isinstance(stats, dict):
                        entry["stats"] = stats
                        fleet_inputs.append(stats)
            replicas[name] = entry
        local = self._metrics.stats()
        up = sum(1 for h in self._replicas.values() if h.state == "up")
        return {
            "router": {
                "replicas": len(self._replicas),
                "up": up,
                "inflight": self._inflight,
                "closed": self._closed,
                "stages": local["stages"],
                "counters": local["counters"],
                "counter_windows": local["counter_windows"],
            },
            "replicas": replicas,
            "fleet": _merge_fleet_stats(fleet_inputs),
        }


def _merge_fleet_stats(stats_list: list[dict]) -> dict:
    """Fold per-replica service stats into one fleet dict (counters
    sum, hit rate recomputes, stage histograms merge bucket-wise)."""
    fleet: dict = {
        "requests": 0,
        "detected": 0,
        "coalesced": 0,
        "rejected": 0,
        "batches": 0,
    }
    hits = misses = 0
    batch_sizes: Counter[int] = Counter()
    stages: dict[str, list[dict]] = {}
    generations = [
        stats.get("model_generation", 0)
        for stats in stats_list
        if isinstance(stats.get("model_generation"), int)
    ]
    # min == max means every reporting replica serves the same model;
    # they diverge transiently mid-rolling-reload.
    fleet["model_generation"] = {
        "min": min(generations, default=0),
        "max": max(generations, default=0),
    }
    for stats in stats_list:
        for key in ("requests", "detected", "coalesced", "rejected", "batches"):
            fleet[key] += stats.get(key, 0)
        cache = stats.get("cache") or {}
        hits += cache.get("hits", 0)
        misses += cache.get("misses", 0)
        for size, count in (stats.get("batch_sizes") or {}).items():
            batch_sizes[int(size)] += count
        for stage, histogram in (stats.get("stages") or {}).items():
            stages.setdefault(stage, []).append(histogram)
    lookups = hits + misses
    fleet["cache"] = {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / lookups if lookups else 0.0,
    }
    fleet["batch_sizes"] = {
        str(size): count for size, count in sorted(batch_sizes.items())
    }
    fleet["stages"] = {
        stage: LatencyHistogram.merged(histograms)
        for stage, histograms in sorted(stages.items())
    }
    return fleet


async def _await_ready_line(
    process: asyncio.subprocess.Process,
) -> tuple[str, int]:
    """Read the child's stdout until its ready line; return (host, port)."""
    assert process.stdout is not None
    while True:
        line = await process.stdout.readline()
        if not line:
            # Stdout closes before the child is reaped: wait for its exit
            # so the message carries the real code, not ``None``.
            try:
                await asyncio.wait_for(process.wait(), _EXIT_WAIT_S)
            except asyncio.TimeoutError:
                pass  # stdout closed but the child lives on: code None
            raise ReplicaUnavailableError(
                f"replica process exited (code {process.returncode}) "
                "before becoming ready"
            )
        match = READY_LINE.search(line)
        if match:
            return match.group(1).decode("ascii"), int(match.group(2))


async def _drain_stream(stream: asyncio.StreamReader | None) -> None:
    if stream is None:  # pragma: no cover - spawned with stdout=PIPE
        return
    while await stream.read(4096):
        pass

