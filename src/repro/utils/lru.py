"""A small bounded LRU map, and its sharded variant.

Long-running detector processes memoize pure per-phrase computations
(concept readings, pair affinities). An unbounded dict grows with the
vocabulary of the traffic — fine in a benchmark, a slow leak in a
service. ``LruCache`` is the drop-in replacement: ``get`` refreshes
recency, ``put`` evicts the least-recently-used entry once ``capacity``
is exceeded.

Python dicts preserve insertion order, so recency is maintained by
re-inserting touched keys; eviction pops the oldest (first) key. All
operations are O(1).

:class:`ShardedLruCache` spreads one logical cache over N independent
``LruCache`` shards selected by :func:`shard_of` (crc32 of the key, the
same deterministic sharding the training pipeline uses for query logs).
Eviction pressure stays local to a shard, and the layout matches how a
sharded serving tier would partition a distributed cache — the stats it
reports are per-key-space, not per-process.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator
from typing import Generic, TypeVar, cast
from zlib import crc32


def shard_of(key: Hashable, num_shards: int) -> int:
    """Deterministic shard index for ``key`` (stable across processes).

    Strings hash via crc32 of their UTF-8 bytes, so a key always lands
    on the same shard regardless of ``PYTHONHASHSEED``.
    Non-string keys fall back to ``hash`` (process-stable, which is all
    an in-process cache needs).
    """
    if isinstance(key, str):
        return crc32(key.encode("utf-8")) % num_shards
    return hash(key) % num_shards

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


class ShardedLruCache(Generic[K, V]):
    """One logical LRU cache spread over ``num_shards`` independent shards.

    The total ``capacity`` is split evenly (any remainder goes to the
    first shards), and each key is pinned to one shard by
    :func:`shard_of`. The interface mirrors :class:`LruCache`; hit/miss
    counters aggregate across shards.

    >>> cache = ShardedLruCache(capacity=8, num_shards=4)
    >>> cache.put("a", 1)
    >>> cache.get("a")
    1
    """

    __slots__ = ("_shards",)

    def __init__(self, capacity: int, num_shards: int = 8) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if capacity < num_shards:
            raise ValueError(
                f"capacity ({capacity}) must be >= num_shards ({num_shards})"
            )
        base, extra = divmod(capacity, num_shards)
        self._shards: list[LruCache[K, V]] = [
            LruCache(base + (1 if index < extra else 0))
            for index in range(num_shards)
        ]

    @property
    def num_shards(self) -> int:
        """Number of independent shards."""
        return len(self._shards)

    @property
    def capacity(self) -> int:
        """Total entries held across all shards."""
        return sum(shard.capacity for shard in self._shards)

    @property
    def hits(self) -> int:
        """Aggregate hit count across shards."""
        return sum(shard.hits for shard in self._shards)

    @property
    def misses(self) -> int:
        """Aggregate miss count across shards."""
        return sum(shard.misses for shard in self._shards)

    def get(self, key: K, default: V | None = None) -> V | None:
        """Return the cached value (refreshing recency) or ``default``."""
        return self._shards[shard_of(key, len(self._shards))].get(key, default)

    def put(self, key: K, value: V) -> None:
        """Insert (or refresh) ``key`` on its shard, evicting that
        shard's LRU entry when the shard is full."""
        self._shards[shard_of(key, len(self._shards))].put(key, value)

    def clear(self) -> None:
        """Drop all entries (hit/miss counters are kept)."""
        for shard in self._shards:
            shard.clear()

    def hottest(self, n: int) -> list[K]:
        """Up to ``n`` keys across shards, hottest first.

        Per-shard recency lists (:meth:`LruCache.hottest`) are
        interleaved round-robin — position 0 of every shard, then
        position 1, ... — so the result is deterministic and no shard's
        hot head is starved by a neighbour's.
        """
        if n <= 0:
            return []
        per_shard = [shard.hottest(n) for shard in self._shards]
        hottest: list[K] = []
        for position in range(max((len(keys) for keys in per_shard), default=0)):
            for keys in per_shard:
                if position < len(keys):
                    hottest.append(keys[position])
                    if len(hottest) >= n:
                        return hottest
        return hottest

    def stats(self) -> dict[str, object]:
        """Aggregate counters plus per-shard sizes."""
        lookups = self.hits + self.misses
        return {
            "size": len(self),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "shard_sizes": [len(shard) for shard in self._shards],
        }

    def __contains__(self, key: K) -> bool:
        return key in self._shards[shard_of(key, len(self._shards))]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)
