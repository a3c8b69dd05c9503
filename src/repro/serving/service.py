"""The online request path: normalize → result cache → detect.

:class:`DetectionService` wraps a detector (compiled, reference, or
snapshot-loaded) behind one ``await service.detect(text)`` coroutine.
Per request, in order, with no await in between:

1. **Normalize** the text with the same fast normalizer the compiled
   detector applies first
   (:func:`~repro.text.normalizer.normalize_fast`; pinned bit-identical
   to the reference :func:`~repro.text.normalizer.normalize` by a
   hypothesis test). A detection is a pure function of the normalized
   text, so the normal form is the cache key.
2. **Result cache** — a :class:`~repro.utils.lru.LruCache` keyed by
   the normal form. Real query logs are Zipfian; the hot head of the
   distribution is answered here without touching the detector. The
   cache is read and written only on the event-loop thread, so it needs
   no lock and no sharding.
3. **Detect** — a miss runs ``detector.detect`` inline on the event
   loop, timed as the ``detect`` stage, and fills the cache. Every
   ingress caps a query at
   :data:`~repro.text.normalizer.MAX_QUERY_TOKENS` tokens, so one
   request holds the loop for at most one capped detection. A detector
   exception reaches that request only and is never cached.

The service keeps no queue: batching concurrent requests won no
measurement (EXPERIMENTS.md, R10). Backpressure lives in the front
doors: the HTTP listener's ``MAX_CONNECTIONS`` and the router's
``max_inflight``.

Every path returns the *same* ``Detection`` object one-shot
``detector.detect(text)`` would — bit-identical, enforced by
``tests/serving/test_service.py`` over the held-out eval set.

Shutdown is deterministic: ``await close()`` stops admission
(:class:`~repro.errors.ServerClosedError` for late arrivals). A request
runs to completion between two awaits, so nothing is left in flight to
drain. The service starts no thread and holds no resource beyond its
detector, so an abandoned service needs no cleanup.

**Hot swap.** :meth:`DetectionService.reload` atomically replaces
the live detector with one loaded from a new snapshot, without dropping
a request. A request runs between two awaits, so a swap lands between
requests, never inside one: every request answers wholly from the model
live when it runs, requests that run after the swap see the new model,
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
from dataclasses import dataclass
from time import perf_counter

from repro.core.detector import Detection
from repro.errors import ModelError, ServerClosedError, ServingError
from repro.runtime.lineage import model_generation_of
from repro.serving.metrics import ServingMetrics
from repro.text.normalizer import normalize_fast
from repro.utils.lru import LruCache

_MISS = object()


@dataclass(frozen=True)
class ServingConfig:
    """Serving-layer policy: ``cache_size`` entries of the
    normalized-query result cache (``cache_size=0`` disables it)."""

    cache_size: int = 50_000

    def __post_init__(self) -> None:
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
        # Request and detect latencies; the HTTP/replica front ends keep
        # their own stages.
        self._metrics = ServingMetrics()
        self._cache: LruCache[str, Detection] | None = None
        if self._config.cache_size > 0:
            self._cache = LruCache(self._config.cache_size)
        self._closed = False
        self._requests = 0
        self._detected = 0
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

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    async def detect(self, text: str) -> Detection:
        """Detect ``text``, bit-identical to ``detector.detect(text)``.

        Runs to completion without yielding to the event loop. Raises
        :class:`~repro.errors.ServerClosedError` after shutdown has
        begun, and whatever the detector raises for this text.
        """
        start = perf_counter()
        try:
            if self._closed:
                raise ServerClosedError("detection service is closed")
            self._requests += 1
            key = normalize_fast(text)
            cache = self._cache
            if cache is not None:
                cached = cache.get(key, _MISS)
                if cached is not _MISS:
                    return cached
            self._detected += 1
            with self._metrics.span("detect"):
                detection = self._detector.detect(key)
            if cache is not None:
                cache.put(key, detection)
            return detection
        finally:
            self._metrics.observe("request", perf_counter() - start)

    async def detect_many(self, texts) -> list[Detection]:
        """Detect ``texts`` in order through the request path (a
        convenience for clients and tests)."""
        return [await self.detect(text) for text in texts]

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
        - the swap itself runs between requests: each request runs to
          completion between two awaits, so requests that ran before it
          answered from the old model and every request that runs after
          it resolves ``self._detector`` to the new model;
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
        """Stop admission: later requests raise
        :class:`~repro.errors.ServerClosedError`. A request never
        yields mid-way, so nothing is in flight to drain. Idempotent."""
        self._closed = True

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
        ``cache.hits`` were answered from the result cache and
        ``detected`` ran through the detector. ``stages`` carries the
        per-stage latency histograms (``request``/``detect``, p50/p95/p99
        and bucket counts) from the
        :class:`~repro.serving.metrics.ServingMetrics` registry.

        ``batches`` (one per detector call, so equal to ``detected``),
        ``coalesced`` and ``rejected`` (always 0) carry no information.
        They stay because perfbench's ``/stats`` reader indexes them,
        until a benchmark change drops its ``serving.batcher.*`` rows.
        """
        metrics = self._metrics.stats()
        return {
            "requests": self._requests,
            "detected": self._detected,
            "coalesced": 0,
            "rejected": 0,
            "closed": self._closed,
            "model_generation": self._model_generation,
            "swaps": self._swaps,
            "cache": self._cache.stats() if self._cache is not None else None,
            "batches": self._detected,
            "stages": metrics["stages"],
            "counters": metrics["counters"],
        }


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

