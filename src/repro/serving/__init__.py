"""Online serving: the asyncio front-end over the compiled runtime.

The compiled runtime makes one process fast and snapshots make many
processes cheap to start — but a batch API is *batch-shaped*: a caller
shows up with a list. Real query/ads traffic is
the opposite: many concurrent callers, one short text each, heavy
repetition (Zipfian logs). This package turns the compiled detector into
a server for that shape:

- :class:`MicroBatcher` (:mod:`repro.serving.batcher`) — coalesces
  concurrent single detections into ``detect_batch`` calls: an idle
  batcher dispatches at once, and requests arriving while a batch runs
  form the next one (capped at ``max_batch_size``).
- :class:`DetectionService` (:mod:`repro.serving.service`) — the
  request path: normalized-key result cache (one LRU), single-flight
  dedup of identical in-flight queries, bounded admission queue raising
  :class:`~repro.errors.ServerOverloadedError`, and graceful drain.
  Batches run inline on the event loop: no serving thread.
- :class:`DetectionHTTPServer` (:mod:`repro.serving.http`) — the one
  small stdlib-only asyncio HTTP server (``POST /detect``, ``POST
  /reload``, ``GET /stats``, ``GET /healthz``) behind both ``repro
  serve`` and ``repro route``, over a local service or a router; and
  :func:`run_server`, the one signal-driven run loop of every serving
  process.
- :class:`ServingMetrics` (:mod:`repro.serving.metrics`) — per-stage
  latency histograms (mergeable fixed buckets), counters, and span
  traces threaded batcher → service → replica → router and surfaced
  on ``/stats``.
- :class:`ReplicaServer` (:mod:`repro.serving.replica`) and
  :class:`Router` (:mod:`repro.serving.router`) — multi-replica
  serving: N replica processes share one mmap'd snapshot behind a
  consistent-hash front door (``repro route``), with per-replica
  health, restart-with-generation, budget-bounded tail hedging, sibling
  cache warm-up for rejoining replicas, and aggregated fleet ``/stats``.

Cached, deduped, and micro-batched responses are **bit-identical** to
one-shot ``CompiledDetector.detect`` — enforced by
``tests/serving/test_service.py`` on the held-out eval set and measured
by the R10/R12 benchmarks (``benchmarks/bench_r10_serving.py``,
``benchmarks/bench_r12_router.py``).

Public names resolve on first use (:mod:`repro.utils.lazy`), so importing
the package loads none of its submodules. The router process imports only
:mod:`~repro.serving.router` and what it needs to forward frames — no
NumPy and no compiled runtime; replicas load the detector.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.serving.batcher import MicroBatcher
    from repro.serving.http import DetectionHTTPServer, detection_payload, run_server
    from repro.serving.metrics import LatencyHistogram, ServingMetrics, StatCounter
    from repro.serving.replica import ReplicaServer
    from repro.serving.router import (
        ConsistentHashRing,
        ReplicaClient,
        Router,
        RouterConfig,
    )
    from repro.serving.service import DetectionService, ServingConfig

__all__ = [
    "ConsistentHashRing",
    "DetectionHTTPServer",
    "DetectionService",
    "LatencyHistogram",
    "MicroBatcher",
    "ReplicaClient",
    "ReplicaServer",
    "Router",
    "RouterConfig",
    "ServingConfig",
    "ServingMetrics",
    "StatCounter",
    "detection_payload",
    "run_server",
]

if not TYPE_CHECKING:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.serving.batcher": ("MicroBatcher",),
            "repro.serving.http": (
                "DetectionHTTPServer",
                "detection_payload",
                "run_server",
            ),
            "repro.serving.metrics": (
                "LatencyHistogram",
                "ServingMetrics",
                "StatCounter",
            ),
            "repro.serving.replica": ("ReplicaServer",),
            "repro.serving.router": (
                "ConsistentHashRing",
                "ReplicaClient",
                "Router",
                "RouterConfig",
            ),
            "repro.serving.service": ("DetectionService", "ServingConfig"),
        },
    )
