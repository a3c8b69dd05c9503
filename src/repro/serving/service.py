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
   executed on a single worker thread, keeping the event loop free to
   accept requests while a batch runs.

Every path returns the *same* ``Detection`` object one-shot
``detector.detect(text)`` would — bit-identical, enforced by
``tests/serving/test_service.py`` over the held-out eval set.

Shutdown is deterministic: ``await close()`` stops admission
(:class:`~repro.errors.ServerClosedError` for late arrivals), flushes
and drains in-flight batches, then releases the worker thread. An
abandoned service is finalize-guarded (``weakref.finalize``) so garbage
collection also releases the thread.

**Hot swap.** :meth:`DetectionService.reload` atomically replaces
the live detector with one loaded from a new snapshot, without dropping
a request: the currently running batch keeps the old detector (its
reference was resolved at dispatch), the old detector's teardown is
queued *behind* it on the same single worker thread, and batches
dispatched after the swap see the new model. The result cache is
invalidated at swap, and an internal model epoch guards against a
late-finishing old-model batch re-filling the fresh cache — so no
response ever mixes generations and no stale result outlives a swap.
``stats()`` reports the serving ``model_generation`` (taken from the
snapshot's lineage header when present).

*Memory.* The service drops its reference to a swapped-out detector at
the swap, and nothing else in the serving path keeps one past the last
batch dispatched to it, so reference counting frees the old model the
moment that batch returns — no cyclic collection is needed. A serving
process therefore holds at most two generations: the live one and the
one loading. The exception is ownership: a caller that keeps the
detector it passed to the constructor keeps that generation alive for
as long as it holds it. ``repro serve`` and replica processes hand the
first detector to the service and keep no reference of their own.
"""

from __future__ import annotations

import asyncio
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
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
        # One worker thread: batches run off the event loop (the loop
        # keeps accepting requests), but detection stays single-threaded
        # so the detector's LRU memoization needs no locking.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="hdm-serving"
        )
        # GC guard, PR 3 pattern: the callback captures the executor,
        # never the service, so it cannot keep self alive; close()
        # detaches it after the explicit shutdown.
        self._finalizer = weakref.finalize(
            self, _shutdown_executor, self._executor
        )
        self._closed = False
        self._requests = 0
        self._coalesced = 0
        self._rejected = 0
        self._detected = 0
        self._batch_sizes: Counter[int] = Counter()
        # The caller owns the detector it handed us; detectors loaded by
        # reload are ours to close. The epoch is an internal,
        # strictly monotonic swap counter (cache-fill guard); the
        # generation is the *reported* model version, taken from snapshot
        # lineage when available.
        self._owns_detector = False
        self._model_epoch = 0
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
        """Batch runner: detect on the worker thread, fill the cache.

        Outcomes are per-key: a failing batch is retried key-by-key so
        only the offending request errors (the MicroBatcher delivers an
        Exception outcome to exactly that waiter). The detector reference
        and model epoch are captured at dispatch: a swap that lands while
        this batch is on the worker thread lets it *finish on the old
        model*, but the epoch mismatch keeps its results out of the
        post-swap cache.
        """
        detector = self._detector
        epoch = self._model_epoch
        loop = asyncio.get_running_loop()
        with self._metrics.span("detect"):
            outcomes = await loop.run_in_executor(
                self._executor, _detect_batch_attributed, detector, keys
            )
        self._batch_sizes[len(keys)] += 1
        self._detected += len(keys)
        if self._cache is not None and epoch == self._model_epoch:
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
        - the batch currently on the worker thread captured the old
          detector at dispatch and finishes on it;
        - the old detector's ``close`` is queued *behind* that batch on
          the same single worker thread, so its mmap stays valid until
          the last old-model batch returns;
        - batches dispatched after the swap resolve ``self._detector``
          to the new model;
        - the result cache is cleared, and the model-epoch guard in
          :meth:`_run_batch` keeps any still-running old-model batch
          from re-filling it;
        - the old detector is freed when the last batch that uses it
          returns, so memory stays bounded by the live generation plus
          the one loading — unless the caller still holds the detector
          it passed to the constructor, which keeps that one generation
          alive.

        The new generation comes from the snapshot's lineage header; a
        pre-lineage snapshot bumps the current generation by one.
        """
        if self._closed:
            raise ServerClosedError("detection service is closed")
        detector, generation = await asyncio.get_running_loop().run_in_executor(
            None, _load_versioned, snapshot
        )
        if self._closed:  # shut down while the snapshot loaded
            detector.close()
            raise ServerClosedError("detection service is closed")
        if generation is None or generation <= self._model_generation:
            # Rollbacks and pre-lineage snapshots still move the serving
            # generation forward — it tracks *swaps seen by this
            # service*, monotonic so fleet health checks can compare.
            generation = self._model_generation + 1
        old, old_owned = self._detector, self._owns_detector
        self._detector = detector
        self._owns_detector = True
        self._model_epoch += 1
        self._model_generation = generation
        self._swaps += 1
        if self._cache is not None:
            self._cache.clear()
        if old_owned:
            # Behind every already-submitted batch on the 1-thread
            # executor: runs only after the last old-model batch.
            self._executor.submit(old.close)
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
        wait for every in-flight detection, release the worker thread.
        Idempotent."""
        if self._closed:
            return
        self._closed = True
        await self._batcher.join()
        if self._owns_detector:
            # Swapped-in detectors are ours. The batcher has drained, so
            # no batch holds the detector — a direct close is safe (the
            # executor shutdown below may cancel queued work, so this
            # must not ride the worker thread).
            self._detector.close()
            self._owns_detector = False
        finalizer, self._finalizer = self._finalizer, None
        if finalizer is not None:
            finalizer()  # shuts the executor down exactly once

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
    """Detect ``keys`` (worker thread), attributing failures per key.

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


def _shutdown_executor(executor: ThreadPoolExecutor) -> None:
    executor.shutdown(wait=True, cancel_futures=True)
