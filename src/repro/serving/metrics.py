"""Serving observability: lock-free counters, latency histograms, spans.

The serving path (PR 4) kept ad-hoc integer counters; a router in front
of N replica processes (:mod:`repro.serving.router`) needs more: *where*
time goes per stage (batch wait vs detect vs socket hop), *mergeable*
across processes, and cheap enough for the hot path. This module is that
substrate, deliberately stdlib-only and allocation-light:

- :class:`StatCounter` — a monotonic event counter. "Lock-free" the way
  the rest of the serving tier is: every increment happens on the single
  event-loop thread (or under the GIL's atomic integer add), so there is
  no lock to take and no torn read to fear.
- :class:`LatencyHistogram` — fixed exponential buckets (a 1-2-5 series
  in microseconds). Observations are one bucket increment; p50/p95/p99
  are interpolated from bucket counts on demand; histograms from
  different processes merge bucket-wise (:meth:`LatencyHistogram.merged`),
  which is how the router aggregates replica `/stats`.
- :class:`ServingMetrics` — the per-process registry: named counters,
  per-stage histograms, and a bounded ring of recent span events.
  ``with metrics.span("detect"): ...`` times a block, feeds the stage
  histogram, and leaves a trace event behind — the hook threaded through
  batcher → service → replica → router and surfaced on ``/stats``.

Counters and histograms additionally keep a **rotating window** — a
ring of per-interval buckets (:data:`WINDOW_INTERVALS` slots of
:data:`WINDOW_INTERVAL_S` seconds, 60 s total by default) — so the
router's hedging policy reads *recent* counts and percentiles
(:meth:`StatCounter.window_count`, :meth:`LatencyHistogram.window_stats`)
instead of lifetime aggregates that a long-running process can never
move. The window clock is injectable, so hedging decisions are
deterministically unit-testable.

Everything here reports through plain JSON-friendly dicts so the HTTP
``/stats`` route and the replica socket protocol serialize them as-is.
"""

from __future__ import annotations

from collections import deque
from time import monotonic, perf_counter
from typing import Any, Callable, Iterable, Iterator

#: Histogram bucket upper bounds in microseconds: a 1-2-5 series from
#: 1µs to 10s. Sub-microsecond events land in the first bucket;
#: anything slower than 10s lands in the overflow bucket.
BUCKET_BOUNDS_US: tuple[int, ...] = tuple(
    mantissa * 10**exponent
    for exponent in range(8)
    for mantissa in (1, 2, 5)
)

#: How many recent span events :class:`ServingMetrics` retains.
DEFAULT_TRACE_CAPACITY = 256

#: Rotating-window defaults: 12 slots of 5 s — ``/stats`` windows and
#: the hedging policy look at the last minute of traffic.
WINDOW_INTERVALS = 12
WINDOW_INTERVAL_S = 5.0


class StatCounter:
    """A monotonic event counter for the serving path.

    The single-writer twin of the ad-hoc ``self._requests += 1`` integers
    :class:`~repro.serving.service.DetectionService` started with: all
    increments happen on one event-loop thread (or as one GIL-atomic
    integer add), so no lock is needed and reads never tear.

    Besides the lifetime total, every increment also lands in a rotating
    ring of per-interval slots, so :meth:`window_count` /
    :meth:`window_rate` report the *recent* event rate — what the hedge
    budget and ``/stats`` ``counter_windows`` read. ``clock``
    is injectable (monotonic seconds) for deterministic tests.

    >>> shed = StatCounter()
    >>> shed.add()
    >>> shed.add(2)
    >>> shed.value
    3
    """

    __slots__ = ("_value", "_clock", "_interval_s", "_slot_counts", "_slot_marks")

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        window_intervals: int = WINDOW_INTERVALS,
        interval_s: float = WINDOW_INTERVAL_S,
    ) -> None:
        self._value = 0
        self._clock = clock or monotonic
        self._interval_s = interval_s
        self._slot_counts = [0] * max(window_intervals, 1)
        self._slot_marks = [-1] * max(window_intervals, 1)

    def add(self, n: int = 1) -> None:
        """Increment by ``n`` (defaults to one event)."""
        self._value += n
        mark = int(self._clock() / self._interval_s)
        slot = mark % len(self._slot_counts)
        if self._slot_marks[slot] != mark:  # slot expired a window ago
            self._slot_marks[slot] = mark
            self._slot_counts[slot] = 0
        self._slot_counts[slot] += n

    @property
    def value(self) -> int:
        """Current count."""
        return self._value

    @property
    def window_s(self) -> float:
        """The rotating window's total span in seconds."""
        return self._interval_s * len(self._slot_counts)

    def window_count(self) -> int:
        """Events recorded during the last :attr:`window_s` seconds."""
        oldest = int(self._clock() / self._interval_s) - len(self._slot_counts) + 1
        return sum(
            count
            for count, mark in zip(self._slot_counts, self._slot_marks)
            if mark >= oldest
        )

    def window_rate(self) -> float:
        """Recent events per second (:meth:`window_count` over the full
        window span — deterministic, and conservative while the window
        is still filling)."""
        return self.window_count() / self.window_s


class LatencyHistogram:
    """Fixed-bucket latency histogram with interpolated percentiles.

    Buckets are the module-level :data:`BUCKET_BOUNDS_US` (a 1-2-5
    exponential series), so recording an observation is one list-index
    increment — cheap enough for every request — and histograms from
    different processes share bucket edges and merge bucket-wise
    (:meth:`merged`), the property the router's aggregated ``/stats``
    depends on. Percentiles interpolate linearly inside the winning
    bucket, like :func:`numpy.percentile` over grouped data.

    A rotating window (ring of per-interval bucket arrays, the same
    scheme as :meth:`StatCounter.window_count`) backs
    :meth:`window_stats`: recent-traffic percentiles for the adaptive
    control plane, reported on ``/stats`` next to the lifetime totals.

    >>> hist = LatencyHistogram()
    >>> hist.observe(0.001)             # 1000 µs
    >>> hist.count
    1
    """

    __slots__ = (
        "_counts",
        "_count",
        "_sum_us",
        "_max_us",
        "_clock",
        "_interval_s",
        "_win_counts",
        "_win_count",
        "_win_sum_us",
        "_win_max_us",
        "_win_marks",
    )

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        window_intervals: int = WINDOW_INTERVALS,
        interval_s: float = WINDOW_INTERVAL_S,
    ) -> None:
        # One slot per bound plus the overflow bucket.
        self._counts = [0] * (len(BUCKET_BOUNDS_US) + 1)
        self._count = 0
        self._sum_us = 0.0
        self._max_us = 0.0
        self._clock = clock or monotonic
        self._interval_s = interval_s
        slots = max(window_intervals, 1)
        self._win_counts = [[0] * (len(BUCKET_BOUNDS_US) + 1) for _ in range(slots)]
        self._win_count = [0] * slots
        self._win_sum_us = [0.0] * slots
        self._win_max_us = [0.0] * slots
        self._win_marks = [-1] * slots

    @property
    def count(self) -> int:
        """Total observations recorded."""
        return self._count

    @property
    def window_s(self) -> float:
        """The rotating window's total span in seconds."""
        return self._interval_s * len(self._win_marks)

    def observe(self, seconds: float) -> None:
        """Record one latency observation, given in seconds."""
        self.observe_us(seconds * 1e6)

    def observe_us(self, us: float) -> None:
        """Record one latency observation, given in microseconds."""
        index = self._bucket_index(us)
        self._counts[index] += 1
        self._count += 1
        self._sum_us += us
        if us > self._max_us:
            self._max_us = us
        mark = int(self._clock() / self._interval_s)
        slot = mark % len(self._win_marks)
        if self._win_marks[slot] != mark:  # slot expired a window ago
            self._win_marks[slot] = mark
            self._win_counts[slot] = [0] * (len(BUCKET_BOUNDS_US) + 1)
            self._win_count[slot] = 0
            self._win_sum_us[slot] = 0.0
            self._win_max_us[slot] = 0.0
        self._win_counts[slot][index] += 1
        self._win_count[slot] += 1
        self._win_sum_us[slot] += us
        if us > self._win_max_us[slot]:
            self._win_max_us[slot] = us

    @staticmethod
    def _bucket_index(us: float) -> int:
        low, high = 0, len(BUCKET_BOUNDS_US)
        while low < high:  # first bound >= us (binary search, no deps)
            mid = (low + high) // 2
            if BUCKET_BOUNDS_US[mid] < us:
                low = mid + 1
            else:
                high = mid
        return low

    def percentile_us(self, q: float) -> float:
        """The ``q``-th percentile (0-100) in µs, interpolated within
        the winning bucket; 0.0 when nothing was observed."""
        return _percentile_us(self._counts, self._count, self._max_us, q)

    def window_stats(self) -> dict[str, Any]:
        """Percentiles and rate over the last :attr:`window_s` seconds
        only — the recent-traffic twin of :meth:`stats`, read by the
        hedging policy (per-replica p99 trigger, p95-tied hedge delay)."""
        oldest = int(self._clock() / self._interval_s) - len(self._win_marks) + 1
        counts = [0] * (len(BUCKET_BOUNDS_US) + 1)
        count = 0
        sum_us = 0.0
        max_us = 0.0
        for slot, mark in enumerate(self._win_marks):
            if mark < oldest:
                continue
            slot_counts = self._win_counts[slot]
            for index in range(len(counts)):
                counts[index] += slot_counts[index]
            count += self._win_count[slot]
            sum_us += self._win_sum_us[slot]
            max_us = max(max_us, self._win_max_us[slot])
        summary = _histogram_summary(counts, count, sum_us, max_us)
        summary["rate_per_s"] = count / self.window_s
        summary["window_s"] = self.window_s
        return summary

    def stats(self) -> dict[str, Any]:
        """Counters + percentiles as one JSON-friendly dict.

        ``buckets`` maps bucket upper bound (µs, as a string key so JSON
        round-trips losslessly) to its count, omitting empty buckets;
        the overflow bucket reports under ``"inf"``. ``window`` carries
        the same summary restricted to the rotating window
        (:meth:`window_stats`).
        """
        summary = _histogram_summary(
            self._counts, self._count, self._sum_us, self._max_us
        )
        summary["window"] = self.window_stats()
        return summary

    @classmethod
    def merged(cls, stats_dicts: Iterable[dict[str, Any]]) -> dict[str, Any]:
        """Merge several :meth:`stats` dicts (e.g. one per replica) into
        one, recomputing percentiles from the summed buckets.

        Bucket edges are shared by construction, so the merge is exact
        up to bucket resolution — the router's aggregated ``/stats``
        reports fleet-wide p50/p95/p99 without shipping raw samples.
        The ``window`` sub-dicts merge the same way (per-process windows
        are aligned to the same wall-clock intervals only approximately,
        which is fine for the rates the control plane reads).
        """
        stats_dicts = list(stats_dicts)
        merged = _merge_summaries(stats_dicts)
        windows = [
            stats["window"] for stats in stats_dicts if "window" in stats
        ]
        if windows:
            window = _merge_summaries(windows)
            window_s = max(w.get("window_s", 0.0) for w in windows)
            window["rate_per_s"] = (
                window["count"] / window_s if window_s else 0.0
            )
            window["window_s"] = window_s
            merged["window"] = window
        return merged


def _percentile_us(
    counts: list[int], count: int, max_us: float, q: float
) -> float:
    """Interpolated ``q``-th percentile over one bucket-count array
    (shared by lifetime, window, and merged summaries)."""
    if count == 0:
        return 0.0
    target = count * q / 100.0
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        previous = cumulative
        cumulative += bucket_count
        if cumulative >= target:
            lower = 0 if index == 0 else BUCKET_BOUNDS_US[index - 1]
            upper = (
                BUCKET_BOUNDS_US[index]
                if index < len(BUCKET_BOUNDS_US)
                else max_us
            )
            if upper < lower:  # overflow bucket, max inside last bound
                upper = lower
            fraction = (target - previous) / bucket_count
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
    return max_us  # pragma: no cover - cumulative == count above


def _histogram_summary(
    counts: list[int], count: int, sum_us: float, max_us: float
) -> dict[str, Any]:
    """One bucket-count array as the JSON summary shape of
    :meth:`LatencyHistogram.stats`."""
    buckets: dict[str, int] = {}
    for index, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        key = (
            str(BUCKET_BOUNDS_US[index])
            if index < len(BUCKET_BOUNDS_US)
            else "inf"
        )
        buckets[key] = bucket_count
    return {
        "count": count,
        "mean_us": sum_us / count if count else 0.0,
        "max_us": max_us,
        "p50_us": _percentile_us(counts, count, max_us, 50),
        "p95_us": _percentile_us(counts, count, max_us, 95),
        "p99_us": _percentile_us(counts, count, max_us, 99),
        "buckets": buckets,
    }


def _merge_summaries(stats_dicts: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum several summary dicts bucket-wise (the body of
    :meth:`LatencyHistogram.merged`)."""
    counts = [0] * (len(BUCKET_BOUNDS_US) + 1)
    count = 0
    sum_us = 0.0
    max_us = 0.0
    for stats in stats_dicts:
        entry_count = stats.get("count", 0)
        if not entry_count:
            continue
        count += entry_count
        sum_us += stats.get("mean_us", 0.0) * entry_count
        max_us = max(max_us, stats.get("max_us", 0.0))
        for key, bucket_count in stats.get("buckets", {}).items():
            if key == "inf":
                index = len(BUCKET_BOUNDS_US)
            else:
                index = LatencyHistogram._bucket_index(int(key))
            counts[index] += bucket_count
    return _histogram_summary(counts, count, sum_us, max_us)


class _Span:
    """One timed block: records into a stage histogram on exit and
    appends a trace event to the owning registry's ring."""

    __slots__ = ("_metrics", "_stage", "_start")

    def __init__(self, metrics: "ServingMetrics", stage: str) -> None:
        self._metrics = metrics
        self._stage = stage
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._metrics.observe(self._stage, perf_counter() - self._start)


class ServingMetrics:
    """Per-process metrics registry for the serving path.

    Owns named :class:`StatCounter` counters, per-stage
    :class:`LatencyHistogram` histograms, and a bounded ring of recent
    span events. One registry is created per
    :class:`~repro.serving.service.DetectionService` and shared down
    into its :class:`~repro.serving.batcher.MicroBatcher` and up into
    the HTTP/replica front ends, so one ``/stats`` response shows the
    whole pipeline's timing.

    >>> metrics = ServingMetrics()
    >>> with metrics.span("detect"):
    ...     pass
    >>> metrics.stage("detect").count
    1
    """

    __slots__ = ("_counters", "_stages", "_events", "_sequence", "_clock")

    def __init__(
        self,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self._counters: dict[str, StatCounter] = {}
        self._stages: dict[str, LatencyHistogram] = {}
        self._events: deque[dict[str, Any]] = deque(maxlen=max(trace_capacity, 1))
        self._sequence = 0
        # Shared by every counter/stage window, injectable for tests.
        self._clock = clock or monotonic

    def counter(self, name: str) -> StatCounter:
        """The named counter, created on first use."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = StatCounter(clock=self._clock)
        return counter

    def stage(self, name: str) -> LatencyHistogram:
        """The named stage histogram, created on first use."""
        histogram = self._stages.get(name)
        if histogram is None:
            histogram = self._stages[name] = LatencyHistogram(clock=self._clock)
        return histogram

    def observe(self, stage: str, seconds: float) -> None:
        """Record a latency for ``stage`` and append a trace event."""
        us = seconds * 1e6
        self.stage(stage).observe_us(us)
        self._sequence += 1
        self._events.append({"seq": self._sequence, "stage": stage, "us": us})

    def span(self, stage: str) -> _Span:
        """A context manager timing its block into ``stage``:
        ``with metrics.span("route"): ...``."""
        return _Span(self, stage)

    def events(self) -> Iterator[dict[str, Any]]:
        """Recent span events, oldest first (bounded ring)."""
        return iter(tuple(self._events))

    def stats(self) -> dict[str, Any]:
        """The whole registry as one JSON-friendly dict: per-stage
        histogram stats (see :meth:`LatencyHistogram.stats`, each with
        its rotating ``window`` summary), counter values plus their
        last-window rates (``counter_windows``), and the recent span
        events."""
        return {
            "stages": {
                name: histogram.stats()
                for name, histogram in sorted(self._stages.items())
            },
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "counter_windows": {
                name: {
                    "count": counter.window_count(),
                    "rate_per_s": counter.window_rate(),
                }
                for name, counter in sorted(self._counters.items())
            },
            "spans": list(self._events),
        }
