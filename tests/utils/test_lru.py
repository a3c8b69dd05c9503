"""Tests for repro.utils.lru."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.lru import LruCache, remember


class TestLruCache:
    def test_get_returns_put_value(self):
        cache = LruCache(capacity=4)
        cache.put("a", 1)
        assert cache.get("a") == 1

    def test_get_missing_returns_default(self):
        cache = LruCache(capacity=4)
        assert cache.get("missing") is None
        assert cache.get("missing", 42) == 42

    def test_eviction_drops_least_recently_used(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert "a" not in cache
        assert cache.get("b") == 2
        assert cache.get("c") == 3

    def test_get_refreshes_recency(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache

    def test_put_refreshes_recency_and_value(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh: "b" becomes LRU
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_len_and_iter_follow_recency_order(self):
        cache = LruCache(capacity=3)
        for key in "abc":
            cache.put(key, key)
        cache.get("a")
        assert len(cache) == 3
        assert list(cache) == ["b", "c", "a"]

    def test_clear_empties_but_keeps_counters(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1
        assert cache.misses == 1

    def test_hit_miss_counters(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("zzz")
        assert cache.hits == 2
        assert cache.misses == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LruCache(capacity=0)
        with pytest.raises(ValueError):
            LruCache(capacity=-3)

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers()), max_size=200))
    def test_never_exceeds_capacity_and_agrees_with_dict(self, operations):
        cache = LruCache(capacity=5)
        shadow: dict[int, int] = {}
        for key, value in operations:
            cache.put(key, value)
            shadow[key] = value
            assert len(cache) <= 5
        for key in list(cache):  # snapshot: get() refreshes recency order
            assert cache.get(key) == shadow[key]

    def test_stats_shape(self):
        cache = LruCache(capacity=3)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        assert cache.stats() == {
            "size": 1,
            "capacity": 3,
            "hits": 1,
            "misses": 1,
            "hit_rate": 0.5,
        }

    def test_stats_hit_rate_without_lookups(self):
        assert LruCache(capacity=1).stats()["hit_rate"] == 0.0

    def test_hottest_is_mru_first_and_tracks_refreshes(self):
        cache = LruCache(capacity=4)
        for key in "abcd":
            cache.put(key, key)
        cache.get("b")  # refresh: "b" is now the hottest key
        assert cache.hottest(4) == ["b", "d", "c", "a"]
        assert cache.hottest(2) == ["b", "d"]  # truncates at n
        assert cache.hottest(100) == ["b", "d", "c", "a"]

    def test_hottest_handles_degenerate_n(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        assert cache.hottest(0) == []
        assert cache.hottest(-1) == []
        assert LruCache(capacity=2).hottest(5) == []


class TestRemember:
    def test_clears_once_full_then_inserts(self):
        memo: dict[str, int] = {}
        for index, key in enumerate("abc"):
            remember(memo, key, index, capacity=3)
        assert memo == {"a": 0, "b": 1, "c": 2}
        remember(memo, "d", 3, capacity=3)
        assert memo == {"d": 3}

    @given(
        st.lists(st.tuples(st.integers(0, 20), st.integers()), max_size=200),
        st.integers(1, 8),
    )
    def test_never_exceeds_capacity_and_agrees_with_dict_between_clears(
        self, operations, capacity
    ):
        memo: dict[int, int] = {}
        shadow: dict[int, int] = {}
        for key, value in operations:
            before = len(memo)
            remember(memo, key, value, capacity)
            if before >= capacity:
                shadow.clear()  # a clear: the shadow restarts too
            shadow[key] = value
            assert len(memo) <= capacity
            assert memo == shadow
