"""One serving replica: a snapshot-backed detection process behind a
length-prefixed asyncio socket protocol.

The multi-replica architecture (:mod:`repro.serving.router`) runs N of
these processes behind one front-door router. Each replica loads the
*same* ``HDMSNAP1`` snapshot via ``mmap`` — resident model memory is
shared page cache across the fleet, not N private copies — and serves
its :class:`~repro.serving.service.DetectionService` (result cache and
inline detection: the whole request path) over a deliberately minimal
inward-facing wire protocol:

- **Framing** — every message is ``4-byte big-endian length`` +
  ``JSON (sorted keys)``. One persistent connection carries many
  concurrent requests: frames are multiplexed by an ``"id"`` the client
  chooses and the replica echoes. Detection runs inline on the event
  loop, so a health probe on the same socket waits behind detections
  of queries capped at :data:`~repro.text.normalizer.MAX_QUERY_TOKENS`
  tokens (a ``detect`` over the cap is refused as ``bad_request``). At
  most :data:`MAX_UNANSWERED_FRAMES` frames per connection are being
  answered at once; past that the replica stops reading the socket
  until a reply goes out, so a peer that sends without reading replies
  holds a bounded number of tasks, not an ever-growing set.
- **Ops** — ``detect`` (query → the ``repro detect --json`` payload),
  ``health`` (status + replica id + generation + model generation +
  pid), ``stats`` (the service's full counters/stages dict),
  ``cache_keys`` (the top-N hottest normalized result-cache keys via
  :meth:`~repro.serving.service.DetectionService.hot_keys` — the donor
  side of replica cache warm-up), and
  ``reload`` (hot-swap the serving snapshot in place via
  :meth:`~repro.serving.service.DetectionService.reload` — the swap
  lands between two requests and drops nothing). Unknown ops get a
  structured error frame; protocol violations (oversized frame, junk
  bytes) close the connection with
  :class:`~repro.errors.ReplicaProtocolError` semantics rather than
  wedging the reader.
- **Errors** — per-request and structured: ``{"ok": false, "kind":
  "closed" | "bad_request" | "internal"}`` so the router can re-route
  or fail the one request without guessing from strings.

``repro replica`` runs a :class:`ReplicaServer` under the same
:func:`~repro.serving.http.run_server` loop as the HTTP front door; it
prints one machine-readable ready line (``replica listening on
HOST:PORT``) so a parent router can spawn it with ``--port 0`` and learn
the bound port, and drains gracefully on SIGTERM.
"""

from __future__ import annotations

import asyncio
import json
import os
import struct
from typing import TYPE_CHECKING

from repro.errors import ModelError, ReplicaProtocolError, ServerClosedError
from repro.serving.http import Listener, detection_payload
from repro.text.normalizer import token_cap_error

if TYPE_CHECKING:
    from repro.serving.service import DetectionService

#: Largest accepted frame; detection requests and stats payloads are
#: small, so anything bigger is a protocol violation, not a workload.
MAX_FRAME_BYTES = 1 << 20

#: Frames one connection may have read but not yet answered. The
#: router's default ``max_inflight`` (1024) never reaches it; a peer that
#: does waits in its own socket buffer until replies go out.
MAX_UNANSWERED_FRAMES = 1024

_LENGTH = struct.Struct(">I")


def encode_frame(payload: dict) -> bytes:
    """Serialize one protocol frame: 4-byte big-endian length + JSON.

    The JSON is ``sort_keys=True`` like :func:`~repro.serving.http.http_response`,
    so identical payloads are identical bytes — the property the r12
    bench's bit-identity check rides on.
    """
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ReplicaProtocolError(
            f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return _LENGTH.pack(len(body)) + body


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`~repro.errors.ReplicaProtocolError` for oversized or
    non-JSON frames (the encoding twin of :func:`encode_frame`) and lets
    ``asyncio.IncompleteReadError`` surface for a peer that died
    mid-frame — callers treat both as "this connection is done".
    """
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ReplicaProtocolError(
            f"incoming frame of {length} bytes exceeds {MAX_FRAME_BYTES}"
        )
    body = await reader.readexactly(length)
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ReplicaProtocolError(f"frame is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ReplicaProtocolError("frame payload must be a JSON object")
    return payload


class ReplicaServer(Listener):
    """Serve a :class:`DetectionService` over the replica socket protocol.

    The inward-facing twin of
    :class:`~repro.serving.http.DetectionHTTPServer`, on the same
    :class:`~repro.serving.http.Listener` lifecycle and graceful drain,
    but with one multiplexed connection instead of HTTP's in-order
    keep-alive — the router keeps one socket per replica and pipelines
    every request over it, answered in whatever order they finish.

    >>> server = ReplicaServer(service, port=0)        # doctest: +SKIP
    >>> await server.start()      # server.port is the bound port
    >>> await server.stop()       # drains in-flight detections
    """

    def __init__(
        self,
        service: DetectionService,
        host: str = "127.0.0.1",
        port: int = 0,
        replica_id: int = 0,
        generation: int = 1,
    ) -> None:
        super().__init__(service, host, port)
        self._replica_id = replica_id
        self._generation = generation

    @property
    def replica_id(self) -> int:
        """This replica's stable index in the fleet (hash-ring node id)."""
        return self._replica_id

    @property
    def generation(self) -> int:
        """Spawn generation: 1 for the first launch, +1 per restart."""
        return self._generation

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        tasks: set[asyncio.Task] = set()
        write_lock = asyncio.Lock()
        slots = asyncio.Semaphore(MAX_UNANSWERED_FRAMES)

        def _done(task: asyncio.Task) -> None:
            tasks.discard(task)
            slots.release()

        try:
            while True:
                # Hold off reading the next frame until one is free.
                await slots.acquire()
                try:
                    request = await read_frame(reader)
                except (
                    ReplicaProtocolError,
                    asyncio.IncompleteReadError,
                    ConnectionError,
                ):
                    break  # poisoned or dying connection: stop reading
                if request is None:
                    break
                task = asyncio.create_task(
                    self._answer(request, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(_done)
        finally:
            # Let in-flight answers finish (drain), then drop the socket.
            if tasks:
                await asyncio.gather(*tuple(tasks), return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - peer raced close
                pass

    async def _answer(
        self, request: dict, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        response = await self._respond(request)
        async with write_lock:  # frames must not interleave mid-write
            try:
                writer.write(encode_frame(response))
                await writer.drain()
            except ConnectionError:  # pragma: no cover - peer went away
                pass

    async def _respond(self, request: dict) -> dict:
        service = self._backend
        request_id = request.get("id")
        base = {"id": request_id}
        op = request.get("op")
        if op == "detect":
            query = request.get("query")
            if not isinstance(query, str):
                return {
                    **base,
                    "ok": False,
                    "kind": "bad_request",
                    "error": "detect needs a string 'query'",
                }
            refused = token_cap_error(query)
            if refused is not None:
                return {**base, "ok": False, "kind": "bad_request", "error": refused}
            try:
                detection = await service.detect(query)
            except ServerClosedError as exc:
                return {**base, "ok": False, "kind": "closed", "error": str(exc)}
            # repro: noqa[REP006] -- fan-out boundary: the failure is
            # returned as this one request's structured error frame, so the
            # router re-raises it for exactly one caller, never the fleet.
            except Exception as exc:
                return {**base, "ok": False, "kind": "internal", "error": str(exc)}
            return {**base, "ok": True, "result": detection_payload(detection)}
        if op == "health":
            return {
                **base,
                "ok": True,
                "status": "closed" if service.closed else "ok",
                "replica": self._replica_id,
                "generation": self._generation,
                "model_generation": service.model_generation,
                "pid": os.getpid(),
            }
        if op == "stats":
            stats = service.stats()
            stats["replica"] = self._replica_id
            stats["generation"] = self._generation
            stats["pid"] = os.getpid()
            return {**base, "ok": True, "stats": stats}
        if op == "cache_keys":
            n = request.get("n", 256)
            if not isinstance(n, int) or n < 0:
                return {
                    **base,
                    "ok": False,
                    "kind": "bad_request",
                    "error": "cache_keys needs a non-negative integer 'n'",
                }
            return {**base, "ok": True, "keys": service.hot_keys(n)}
        if op == "reload":
            snapshot = request.get("snapshot")
            if not isinstance(snapshot, str):
                return {
                    **base,
                    "ok": False,
                    "kind": "bad_request",
                    "error": "reload needs a string 'snapshot' path",
                }
            try:
                _, reloaded = await service.reload(snapshot)
            except ServerClosedError as exc:
                return {**base, "ok": False, "kind": "closed", "error": str(exc)}
            except (ModelError, OSError) as exc:
                # Bad or missing snapshot file: the old model keeps
                # serving; the caller learns why the swap was refused.
                return {**base, "ok": False, "kind": "bad_request", "error": str(exc)}
            return {
                **base,
                "ok": True,
                "model_generation": reloaded["model_generation"],
                "replica": self._replica_id,
            }
        return {
            **base,
            "ok": False,
            "kind": "bad_request",
            "error": f"unknown op {op!r}",
        }

