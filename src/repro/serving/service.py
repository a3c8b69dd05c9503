"""The online request path: cache → single-flight → micro-batch → detect.

:class:`DetectionService` wraps a detector (compiled, reference, or
snapshot-loaded) behind one ``await service.detect(text)`` coroutine.
Per request, in order:

1. **Normalize** the text with the same fast normalizer the compiled
   detector applies first
   (:func:`~repro.text.normalizer.normalize_fast`; pinned bit-identical
   to the reference :func:`~repro.text.normalizer.normalize` by a
   hypothesis test). A detection is a pure function of the normalized
   text, so the normal form is the cache and dedup key.
2. **Result cache** — a :class:`~repro.utils.lru.LruCache` keyed by
   the normal form. Real query logs are Zipfian; the hot head of the
   distribution is answered here without touching the detector. The
   cache is read and written only on the event-loop thread, so it needs
   no lock and no sharding.
3. **Single-flight dedup** — identical queries already being detected
   are *joined*, not re-enqueued: every concurrent waiter shares one
   in-flight future, so a thundering herd of the same query costs one
   detection.
4. **Admission control** — at most ``max_pending`` distinct queries may
   be in flight; past that, :class:`~repro.errors.ServerOverloadedError`
   is raised immediately (deterministic backpressure, never an unbounded
   queue).
5. **Micro-batching** — admitted queries coalesce into
   ``detector.detect_batch`` calls (:class:`~repro.serving.batcher.MicroBatcher`)
   run inline on the event loop. Every ingress caps a query at
   :data:`~repro.text.normalizer.MAX_QUERY_TOKENS` tokens, so a batch
   holds the loop for at most ``max_batch_size`` capped detections;
   requests that arrive meanwhile form the next batch.

Every path returns the *same* ``Detection`` object one-shot
``detector.detect(text)`` would — bit-identical, enforced by
``tests/serving/test_service.py`` over the held-out eval set.

Shutdown is deterministic: ``await close()`` stops admission
(:class:`~repro.errors.ServerClosedError` for late arrivals), then
flushes and drains in-flight batches. The service starts no thread and
holds no resource beyond its detector, so an abandoned service needs no
cleanup.

**Hot swap.** :meth:`DetectionService.reload` atomically replaces
the live detector with one loaded from a new snapshot, without dropping
a request. A batch runs between two awaits, so a swap lands between
batches, never inside one: every batch answers wholly from the model
live when it runs, batches that run after the swap see the new model,
and the result cache, cleared at the swap, only ever refills with
new-generation results. ``stats()`` reports the serving
``model_generation`` (taken from the snapshot's lineage header when
present).

*Memory.* The service drops its reference to a swapped-out detector at
the swap, and nothing else in the serving path keeps one, so reference
counting frees the old model at once — no cyclic collection is needed.
A serving process therefore holds at most two generations: the live one
and the one loading. The exception is ownership: a caller that keeps
the detector it passed to the constructor keeps that generation alive
for as long as it holds it. ``repro serve`` and replica processes hand
the first detector to the service and keep no reference of their own.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from repro.core.detector import Detection
from repro.errors import (
    ModelError,
    ServerClosedError,
    ServerOverloadedError,
    ServingError,
)
from repro.runtime.lineage import model_generation_of
from repro.serving.batcher import MicroBatcher
from repro.serving.metrics import ServingMetrics
from repro.text.normalizer import normalize_fast
from repro.utils.lru import LruCache

_MISS = object()


@dataclass(frozen=True)
class ServingConfig:
    """Serving-layer policy knobs.

    - ``max_batch_size``: micro-batching cap — an idle service answers
      a lone request at once, and requests arriving while a batch runs
      form the next batch, at most ``max_batch_size`` strong.
    - ``max_pending``: distinct in-flight queries admitted before
      :class:`~repro.errors.ServerOverloadedError`.
    - ``cache_size``: entries of the normalized-query result cache
      (``cache_size=0`` disables it).
    """

    max_batch_size: int = 32
    max_pending: int = 1024
    cache_size: int = 50_000

    def __post_init__(self) -> None:
        for name in ("max_batch_size", "max_pending"):
            value = getattr(self, name)
            if value < 1:
                raise ServingError(f"{name} must be positive, got {value}")
        if self.cache_size < 0:
            raise ServingError(f"cache_size must be >= 0, got {self.cache_size}")


class DetectionService:
    """Concurrent front-end over a detector (see module docstring).

    >>> service = DetectionService(model.compile())        # doctest: +SKIP
    >>> detection = await service.detect("cheap hotels in rome")
    >>> await service.close()
    """

    def __init__(self, detector, config: ServingConfig | None = None) -> None:
        self._detector = detector
        self._config = config or ServingConfig()
        # One registry for the whole pipeline: the batcher reports queue
        # waits into it, this service reports request/detect latencies,
        # and the HTTP/replica front ends layer their own stages on top.
        self._metrics = ServingMetrics()
        self._batcher: MicroBatcher[str, Detection] = MicroBatcher(
            self._run_batch,
            max_batch_size=self._config.max_batch_size,
            on_dispatch=self._observe_dispatch,
        )
        self._cache: LruCache[str, Detection] | None = None
        if self._config.cache_size > 0:
            self._cache = LruCache(self._config.cache_size)
        self._inflight: dict[str, asyncio.Future] = {}
        self._closed = False
        self._requests = 0
        self._coalesced = 0
        self._rejected = 0
        self._detected = 0
        self._batch_sizes: Counter[int] = Counter()
        # The *reported* model version, taken from snapshot lineage when
        # available.
        self._model_generation = _lineage_generation(detector)
        self._swaps = 0

    @property
    def config(self) -> ServingConfig:
        """The policy this service was built with."""
        return self._config

    @property
    def closed(self) -> bool:
        """True once shutdown has begun (services don't reopen)."""
        return self._closed

    @property
    def pending(self) -> int:
        """Distinct queries currently in flight (admission counter)."""
        return len(self._inflight)

    @property
    def metrics(self) -> ServingMetrics:
        """The per-stage metrics registry this service reports into
        (shared with its batcher and any front end layered on top)."""
        return self._metrics

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    async def detect(self, text: str) -> Detection:
        """Detect ``text``, bit-identical to ``detector.detect(text)``.

        Raises :class:`~repro.errors.ServerOverloadedError` when the
        admission queue is full and :class:`~repro.errors.ServerClosedError`
        after shutdown has begun.
        """
        start = perf_counter()
        try:
            return await self._detect_admitted(text)
        finally:
            self._metrics.observe("request", perf_counter() - start)

    async def _detect_admitted(self, text: str) -> Detection:
        """The pre-metrics request path (cache → dedup → admission →
        batch); see :meth:`detect` for the caller contract."""
        if self._closed:
            raise ServerClosedError("detection service is closed")
        self._requests += 1
        key = normalize_fast(text)
        if self._cache is not None:
            cached = self._cache.get(key, _MISS)
            if cached is not _MISS:
                return cached
        inflight = self._inflight.get(key)
        if inflight is not None:
            self._coalesced += 1
            # shield: one cancelled waiter must not cancel the shared
            # detection every other waiter is parked on.
            return await asyncio.shield(inflight)
        if len(self._inflight) >= self._config.max_pending:
            self._rejected += 1
            self._metrics.counter("shed").add()
            raise ServerOverloadedError(
                f"serving queue is full ({self._config.max_pending} queries "
                "in flight); shed load or retry with backoff"
            )
        future = self._batcher.submit_nowait(key)
        self._inflight[key] = future
        future.add_done_callback(self._make_inflight_reaper(key, future))
        return await asyncio.shield(future)

    async def detect_many(self, texts) -> list[Detection]:
        """Detect ``texts`` concurrently through the request path,
        preserving input order (a convenience for clients and tests)."""
        return list(await asyncio.gather(*(self.detect(text) for text in texts)))

    def _make_inflight_reaper(self, key: str, future: asyncio.Future):
        def _reap(_done: asyncio.Future) -> None:
            if self._inflight.get(key) is future:
                del self._inflight[key]

        return _reap

    def _observe_dispatch(self, batch_size: int, waited: float) -> None:
        """Batcher dispatch hook: record how long the oldest item of the
        just-dispatched batch sat waiting for batch-mates."""
        self._metrics.observe("queue_wait", waited)

    async def _run_batch(self, keys: list[str]) -> list:
        """Batch runner: detect inline on the event loop, fill the cache.

        Outcomes are per-key: a failing batch is retried key-by-key so
        only the offending request errors (the MicroBatcher delivers an
        Exception outcome to exactly that waiter). Nothing here awaits,
        so no swap can land mid-batch: the whole batch answers from the
        live model and its results may enter the cache.
        """
        with self._metrics.span("detect"):
            outcomes = _detect_batch_attributed(self._detector, keys)
        self._batch_sizes[len(keys)] += 1
        self._detected += len(keys)
        if self._cache is not None:
            for key, outcome in zip(keys, outcomes):
                if not isinstance(outcome, Exception):
                    self._cache.put(key, outcome)
        return outcomes

    # ------------------------------------------------------------------
    # hot swap
    # ------------------------------------------------------------------
    @property
    def model_generation(self) -> int:
        """The generation of the model currently answering requests."""
        return self._model_generation

    async def reload(self, snapshot: str) -> tuple[int, dict]:
        """Hot-swap the live detector for the snapshot at ``snapshot`` —
        the ``POST /reload`` verb, answered ``200`` with the snapshot
        path and the new model generation. Zero requests are dropped:

        - the snapshot loads off the event loop, so requests keep being
          served while it loads;
        - the swap itself runs between batches: batches that ran before
          it answered from the old model, and every batch that runs
          after it — those already queued included — resolves
          ``self._detector`` to the new model;
        - the result cache is cleared at the swap, so it holds only
          new-generation results from then on;
        - the old detector is freed at the swap, so memory stays bounded
          by the live generation plus the one loading — unless the
          caller still holds the detector it passed to the constructor,
          which keeps that one generation alive.

        The new generation comes from the snapshot's lineage header; a
        pre-lineage snapshot bumps the current generation by one.
        """
        if self._closed:
            raise ServerClosedError("detection service is closed")
        detector, generation = await asyncio.get_running_loop().run_in_executor(
            None, _load_versioned, snapshot
        )
        if self._closed:  # shut down while the snapshot loaded
            raise ServerClosedError("detection service is closed")
        if generation is None or generation <= self._model_generation:
            # Rollbacks and pre-lineage snapshots still move the serving
            # generation forward — it tracks *swaps seen by this
            # service*, monotonic so fleet health checks can compare.
            generation = self._model_generation + 1
        self._detector = detector
        self._model_generation = generation
        self._swaps += 1
        if self._cache is not None:
            self._cache.clear()
        return 200, {
            "reloaded": 1,
            "snapshot": snapshot,
            "model_generation": generation,
        }

    def hot_keys(self, n: int = 256) -> list[str]:
        """Up to ``n`` hottest normalized cache keys, hottest first
        (:meth:`~repro.utils.lru.LruCache.hottest`); empty when
        the result cache is disabled.

        The donor side of replica warm-up: a rejoining replica replays a
        sibling's hot keys through its *own* detector before the router
        marks it ``up``, so it never takes its ring arc back cold.
        """
        if self._cache is None:
            return []
        return self._cache.hottest(n)

    # ------------------------------------------------------------------
    # lifecycle & stats
    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Drain and shut down: stop admission, flush the forming batch,
        wait for every in-flight detection. Idempotent."""
        if self._closed:
            return
        self._closed = True
        await self._batcher.join()

    async def __aenter__(self) -> "DetectionService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def healthz(self) -> tuple[int, dict]:
        """The ``GET /healthz`` verb: ``200``, ``ok`` until shutdown
        begins and ``closed`` after."""
        return 200, {"status": "closed" if self._closed else "ok"}

    def stats(self) -> dict:
        """Serving counters as one JSON-friendly dict.

        ``requests`` counts every accepted ``detect`` call; of those,
        ``cache.hits`` were answered from the result cache, ``coalesced``
        joined an identical in-flight query, ``detected`` ran through the
        detector, and ``rejected`` hit admission control. ``batch_sizes``
        is the dispatch histogram (size → batches). ``vectorized`` says
        whether coalesced batches run the array-at-a-time engine
        (:class:`~repro.runtime.vectorized.VectorizedDetector`) rather
        than a per-query loop. ``stages`` carries the per-stage latency
        histograms (``request``/``queue_wait``/``detect``, p50/p95/p99
        and bucket counts) from the shared
        :class:`~repro.serving.metrics.ServingMetrics` registry.
        """
        metrics = self._metrics.stats()
        return {
            "requests": self._requests,
            "detected": self._detected,
            "coalesced": self._coalesced,
            "rejected": self._rejected,
            "pending": len(self._inflight),
            "closed": self._closed,
            "model_generation": self._model_generation,
            "swaps": self._swaps,
            "vectorized": bool(getattr(self._detector, "vectorized_batch", False)),
            "cache": self._cache.stats() if self._cache is not None else None,
            "batches": sum(self._batch_sizes.values()),
            "batch_sizes": {
                str(size): count
                for size, count in sorted(self._batch_sizes.items())
            },
            "stages": metrics["stages"],
            "counters": metrics["counters"],
        }


def _detect_batch_attributed(detector, keys: list[str]) -> list:
    """Detect ``keys`` (inline, on the event loop), attributing failures
    per key.

    The fast path is one ``detect_batch`` call; if it raises, each key is
    retried alone so the poisoned one carries its exception and the rest
    still return detections.
    """
    try:
        return list(detector.detect_batch(keys))
    # repro: noqa[REP006] -- batch-failure fallback: the batch is re-run
    # key-by-key below so the real exception is re-attributed, not dropped.
    except Exception:
        outcomes: list = []
        for key in keys:
            try:
                outcomes.append(detector.detect(key))
            # repro: noqa[REP006] -- per-item attribution: the exception is
            # returned as this key's outcome and re-raised to its awaiter.
            except Exception as exc:
                outcomes.append(exc)
        return outcomes


def _load_versioned(path: str) -> tuple[object, int | None]:
    """Load the snapshot at ``path`` with its lineage generation (None
    for a pre-lineage snapshot) — the file I/O half of a hot swap."""
    from repro.runtime.snapshot import load_snapshot

    detector = load_snapshot(path)
    try:
        return detector, model_generation_of(path)
    except (ModelError, OSError):
        return detector, None


def _lineage_generation(detector) -> int:
    """Generation of the snapshot ``detector`` was loaded from; 1 for
    detectors with no backing snapshot (or a pre-lineage one)."""
    path = getattr(detector, "snapshot_path", None)
    if path is None:
        return 1
    try:
        return model_generation_of(path)
    except (ModelError, OSError):
        return 1

