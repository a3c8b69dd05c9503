"""The two bounded-cache policies, and the only place either is defined.

Long-running detector processes memoize pure functions of short text,
and a served query log is Zipfian. An unbounded dict grows with the
vocabulary of the traffic: fine in a benchmark, a slow leak in a
service. Every bounded cache in the package uses one of two policies.

**Least-recently-used** (:class:`LruCache`). ``get`` refreshes recency,
``put`` evicts the least-recently-used entry once ``capacity`` is
exceeded. Python dicts preserve insertion order, so recency is kept by
re-inserting touched keys and eviction pops the oldest (first) key; all
operations are O(1). It keeps the hot head of a skewed distribution
through any amount of cold traffic, counts hits and misses, and lists
its keys most-recently-used first (:meth:`LruCache.hottest`). It backs
the serving result cache, whose hot keys warm a rejoining replica, and
the compiled detector's four runtime caches, whose counters
``CompiledDetector.cache_stats`` reports.

**Clear-when-full** (:func:`remember` on a plain dict). Once the dict
holds ``capacity`` entries the next insert empties it first. A hit is a
bare ``dict.get``, with no recency write and no counter (a caller that
reports traffic counts lookups once per call, and misses). The compiled
detector's three term memos and ``ConstraintMemo``'s vectors and
decisions use it: they sit on the per-query tail that scalar ``detect``
and ``detect_batch`` share (``CompiledDetector._finish`` and
``_terms``), where the lookup itself is the cost. Putting those five memos on
``LruCache`` instead was measured on perfbench ``batch-annotate`` in 6
interleaved pairs (seeds 911-916) on a 2-vCPU host: ``throughput_qps``
fell from 32.2k to 29.2k (lower in 5 of 6 pairs), ``latency_p50_us``
rose from 1,702 to 1,839 us, and ``rss_mb`` rose from 71.6 to 73.8 MiB
(higher in 6 of 6 pairs).

A sharded LRU is not a third policy: the result cache is touched only
on the serving event-loop thread, so shards would guard no concurrency.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator
from typing import Generic, TypeVar, cast

__all__ = ["LruCache", "remember"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_MISSING = object()


class LruCache(Generic[K, V]):
    """Bounded mapping evicting the least-recently-used entry.

    >>> cache = LruCache(capacity=2)
    >>> cache.put("a", 1); cache.put("b", 2)
    >>> cache.get("a")
    1
    >>> cache.put("c", 3)          # evicts "b", the LRU entry
    >>> "b" in cache
    False
    """

    __slots__ = ("_capacity", "_data", "_hits", "_misses")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._data: dict[K, V] = {}
        self._hits = 0
        self._misses = 0

    @property
    def capacity(self) -> int:
        """Maximum number of entries held."""
        return self._capacity

    @property
    def hits(self) -> int:
        """Number of ``get`` calls that found their key."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of ``get`` calls that did not find their key."""
        return self._misses

    def get(self, key: K, default: V | None = None) -> V | None:
        """Return the cached value (refreshing recency) or ``default``."""
        value = self._data.pop(key, _MISSING)
        if value is _MISSING:
            self._misses += 1
            return default
        hit = cast("V", value)
        self._data[key] = hit  # re-insert at the MRU end
        self._hits += 1
        return hit

    def put(self, key: K, value: V) -> None:
        """Insert (or refresh) ``key``, evicting the LRU entry when full."""
        self._data.pop(key, None)
        self._data[key] = value
        if len(self._data) > self._capacity:
            self._data.pop(next(iter(self._data)))

    def clear(self) -> None:
        """Drop all entries (hit/miss counters are kept)."""
        self._data.clear()

    def hottest(self, n: int) -> list[K]:
        """Up to ``n`` keys, most-recently-used first.

        Recency is the LRU's own hotness signal: the dict is ordered
        oldest→newest, so the reversed prefix is the hot set. Used by
        replica cache warm-up (the router replays a sibling's hottest
        keys through a cold replica before routing to it).
        """
        if n <= 0:
            return []
        hottest: list[K] = []
        for key in reversed(self._data):
            if len(hottest) >= n:
                break
            hottest.append(key)
        return hottest

    def stats(self) -> dict[str, object]:
        """Counters as one JSON-friendly dict (hit_rate over all gets)."""
        lookups = self._hits + self._misses
        return {
            "size": len(self._data),
            "capacity": self._capacity,
            "hits": self._hits,
            "misses": self._misses,
            "hit_rate": self._hits / lookups if lookups else 0.0,
        }

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[K]:
        return iter(self._data)


def remember(memo: dict[K, V], key: K, value: V, capacity: int) -> None:
    """Insert into a clear-when-full memo: once ``memo`` holds
    ``capacity`` entries, empty it before the insert."""
    if len(memo) >= capacity:
        memo.clear()
    memo[key] = value
