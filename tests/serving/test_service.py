"""Serving-layer contract: every response the cached, inline request
path produces must be bit-identical to one-shot
``CompiledDetector.detect``, and the lifecycle (close, reload) must
behave deterministically.

``DetectionService.detect`` never yields to the event loop: it
normalizes, looks up the result cache and runs the detector inline, so
a stub detector here must never block."""

from __future__ import annotations

import asyncio
import gc
import threading
import time
import weakref

import pytest

from repro.errors import ServerClosedError, ServingError
from repro.runtime import load_snapshot
from repro.runtime.compiled import MIN_VECTORIZED_BATCH
from repro.serving import DetectionService, ServingConfig
from repro.serving.replica import ReplicaServer
from repro.text.normalizer import MAX_QUERY_TOKENS, normalize_fast


def run(coro):
    return asyncio.run(coro)


class StubDetector:
    """Records the texts it detects; fails on poisoned texts."""

    def __init__(self, poison: set[str] | None = None):
        self.poison = poison or set()
        self.calls: list[str] = []

    def detect(self, text: str) -> str:
        self.calls.append(text)
        if text in self.poison:
            raise ValueError(f"poisoned text: {text!r}")
        return f"detection[{text}]"


@pytest.fixture(scope="module")
def compiled(model):
    return model.compile()


class TestServingParity:
    def test_eval_set_bit_identical(self, compiled, eval_examples):
        """Cached and detected responses over the full held-out eval set
        — with heavy repetition — equal one-shot ``detect`` exactly
        (Detection dataclass equality, floats and all)."""
        queries = [example.query for example in eval_examples]
        # Repeats are answered by the result cache, fresh queries by the
        # detector.
        traffic = queries + queries[::2] + queries[:50] + queries[::-3]

        async def serve_all():
            async with DetectionService(compiled) as service:
                results = await service.detect_many(traffic)
                return results, service.stats()

        results, stats = run(serve_all())
        expected = {query: compiled.detect(query) for query in set(traffic)}
        mismatches = [
            query
            for query, result in zip(traffic, results)
            if result != expected[query]
        ]
        assert mismatches == []
        assert stats["requests"] == len(traffic)
        # Every request was answered by exactly one of the two paths, and
        # the cache means no normal form is ever detected twice.
        assert stats["detected"] + stats["cache"]["hits"] == len(traffic)
        assert stats["detected"] == len({normalize_fast(q) for q in traffic})
        assert stats["batches"] == stats["detected"]
        assert stats["coalesced"] == stats["rejected"] == 0

    def test_cache_hit_returns_identical_detection(self, compiled):
        query = "cheap hotels in rome"

        async def serve():
            async with DetectionService(compiled) as service:
                first = await service.detect(query)
                second = await service.detect(query)  # sequential: cache hit
                return first, second, service.stats()

        first, second, stats = run(serve())
        assert first is second  # the cached object itself
        assert first == compiled.detect(query)
        assert stats["cache"]["hits"] == 1

    def test_normalized_variants_share_cache_entry(self, compiled):
        """Cache keys are the fast-normalized text, so formatting
        variants of one query cost one detection."""

        async def serve():
            async with DetectionService(compiled) as service:
                a = await service.detect("cheap hotels in rome")
                b = await service.detect("  Cheap   Hotels in ROME ")
                return a, b, service.stats()

        a, b, stats = run(serve())
        assert a is b
        assert stats["detected"] == 1
        assert a == compiled.detect("  Cheap   Hotels in ROME ")


class TestInlineDetect:
    def test_detect_never_yields_to_the_loop(self):
        """A miss and a hit each finish before a callback scheduled just
        before them runs: nothing between the closed check and the
        return awaits. A miss is one detector call on the normal form."""
        stub = StubDetector()

        async def serve():
            async with DetectionService(stub) as service:
                ran: list[str] = []
                loop = asyncio.get_running_loop()
                for query in ("  Cheap Hotels ", "cheap hotels"):
                    loop.call_soon(ran.append, query)
                    answer = await service.detect(query)
                    assert ran == []
                    assert answer == "detection[cheap hotels]"
                    await asyncio.sleep(0)
                    assert ran == [query]
                    ran.clear()
                return service.stats()

        stats = run(serve())
        assert stub.calls == ["cheap hotels"]
        assert stats["cache"]["hits"] == 1
        assert stats["stages"]["detect"]["count"] == 1
        assert stats["stages"]["request"]["count"] == 2

    def test_detector_error_reaches_only_its_request(self):
        stub = StubDetector(poison={"bad"})

        async def serve():
            async with DetectionService(stub, ServingConfig(cache_size=0)) as service:
                outcomes = await asyncio.gather(
                    service.detect("good one"),
                    service.detect("bad"),
                    service.detect("good two"),
                    return_exceptions=True,
                )
                return outcomes

        good_one, bad, good_two = run(serve())
        assert good_one == "detection[good one]"
        assert good_two == "detection[good two]"
        assert isinstance(bad, ValueError)
        assert "poisoned" in str(bad)

    def test_failed_request_is_not_cached(self):
        stub = StubDetector(poison={"bad"})

        async def serve():
            async with DetectionService(stub) as service:
                for _ in range(2):
                    with pytest.raises(ValueError):
                        await service.detect("bad")
                return service.stats()

        stats = run(serve())
        assert stats["cache"]["size"] == 0
        assert stats["detected"] == 2  # retried, never served from cache
        assert stub.calls == ["bad", "bad"]


class TestLoopHold:
    """Detection runs inline on the event loop, so requests that are
    ready together run back to back: other connections, health probes
    and ``/stats`` wait behind them. This bounds the hold of 33
    cap-length requests run back to back."""

    #: A full batch of 32 distinct 32-token held-out queries on a fresh
    #: ``compile()`` held the loop for 36-55 ms on a 2-vCPU host; the
    #: budget leaves ~18x of slack for a slow or busy CI machine.
    HOLD_BUDGET_S = 1.0
    REQUESTS = 33

    def test_full_batch_of_cap_length_queries(self, model, eval_examples):
        words = list(
            dict.fromkeys(
                word for example in eval_examples for word in example.query.split()
            )
        )
        queries = [
            " ".join((words * 2)[start : start + MAX_QUERY_TOKENS])
            for start in range(
                0, self.REQUESTS * MAX_QUERY_TOKENS, MAX_QUERY_TOKENS
            )
        ]
        assert len(set(queries)) == self.REQUESTS
        assert all(
            len(normalize_fast(query).split()) == MAX_QUERY_TOKENS
            for query in queries
        )

        async def serve():
            gaps: list[float] = []
            done = asyncio.Event()

            async def heartbeat():
                last = time.perf_counter()
                while not done.is_set():
                    await asyncio.sleep(0)
                    now = time.perf_counter()
                    gaps.append(now - last)
                    last = now

            beat = asyncio.create_task(heartbeat())
            await asyncio.sleep(0)
            async with DetectionService(
                model.compile(), ServingConfig(cache_size=0)
            ) as service:
                await service.detect_many(queries)
                stats = service.stats()
            done.set()
            await beat
            return max(gaps), stats

        hold, stats = run(serve())
        assert stats["detected"] == self.REQUESTS
        assert hold < self.HOLD_BUDGET_S


class TestLifecycle:
    def test_close_answers_requests_started_before_it(self):
        """A request never yields mid-way, so ``close`` has nothing to
        drain: requests that start before it are answered in full, and
        one after it is refused."""
        stub = StubDetector()

        async def serve():
            service = DetectionService(stub)
            pending = [
                asyncio.create_task(service.detect(f"query {index}"))
                for index in range(5)
            ]
            closing = asyncio.create_task(service.close())
            late = asyncio.create_task(service.detect("late"))
            await closing
            assert service.closed
            assert all(task.done() for task in pending)
            with pytest.raises(ServerClosedError):
                await late
            return await asyncio.gather(*pending)

        results = run(serve())
        assert results == [f"detection[query {index}]" for index in range(5)]
        assert stub.calls == [f"query {index}" for index in range(5)]

    def test_detect_after_close_raises(self):
        async def serve():
            service = DetectionService(StubDetector())
            await service.close()
            with pytest.raises(ServerClosedError):
                await service.detect("too late")
            await service.close()  # idempotent

        run(serve())

    def test_serving_starts_no_thread(self, compiled, eval_examples):
        """Detection runs inline on the event loop: serving requests
        through a service starts no thread."""
        queries = [example.query for example in eval_examples[:100]]
        before = set(threading.enumerate())

        async def serve():
            async with DetectionService(compiled) as service:
                await service.detect_many(queries)
                await service.detect(queries[0])
                started = set(threading.enumerate()) - before
                return started, service.stats()["batches"]

        started, batches = run(serve())
        assert started == set()
        assert batches >= 2


class TestConfigValidation:
    def test_bad_config_rejected(self):
        with pytest.raises(ServingError):
            ServingConfig(cache_size=-1)

    def test_cache_disabled(self):
        stub = StubDetector()
        config = ServingConfig(cache_size=0)

        async def serve():
            async with DetectionService(stub, config) as service:
                await service.detect("q")
                await service.detect("q")  # sequential: re-detected
                return service.stats()

        stats = run(serve())
        assert stats["cache"] is None
        assert stats["detected"] == 2


class TestHotKeys:
    def test_hot_keys_exports_normalized_cache_keys(self, compiled):
        async def serve():
            async with DetectionService(compiled) as service:
                await service.detect("  Cheap   Hotels in ROME ")
                await service.detect("iphone 5s case")
                return service.hot_keys(), service.hot_keys(1)

        keys, one = run(serve())
        # Keys are the fast-normalized texts the cache is indexed by —
        # exactly what a cold replica can replay through its own detector.
        assert keys == ["iphone 5s case", "cheap hotels in rome"]
        assert one == ["iphone 5s case"]

    def test_hot_keys_are_most_recently_used_first(self):
        """Four misses, then one cache hit: the key just answered from
        the cache ranks first, the rest follow in reverse insertion
        order (router warm-up replays this list from the front)."""
        stub = StubDetector()

        async def serve():
            async with DetectionService(stub) as service:
                for query in ("cheap hotels", "rome pizza", "red shoes", "used cars"):
                    await service.detect(query)
                await service.detect("cheap hotels")
                return service.hot_keys(), service.stats()["cache"]

        keys, cache = run(serve())
        assert cache["hits"] == 1 and cache["misses"] == 4
        assert keys == ["cheap hotels", "used cars", "red shoes", "rome pizza"]

    def test_cache_holds_exactly_cache_size_entries(self):
        stub = StubDetector()
        config = ServingConfig(cache_size=3)

        async def serve():
            async with DetectionService(stub, config) as service:
                for query in ("a", "b", "c", "d", "e"):
                    await service.detect(query)
                return service.stats()["cache"], service.hot_keys()

        cache, keys = run(serve())
        assert cache["capacity"] == 3 and cache["size"] == 3
        assert keys == ["e", "d", "c"]

    def test_hot_keys_empty_when_cache_disabled(self):
        stub = StubDetector()
        config = ServingConfig(cache_size=0)

        async def serve():
            async with DetectionService(stub, config) as service:
                await service.detect("q")
                return service.hot_keys()

        assert run(serve()) == []


class TestPromptRelease:
    """A swapped-out model is freed by reference counting at the swap,
    so a service holds at most the live generation plus the one
    loading. The cyclic collector is off throughout: a retired
    generation that only a collection could free counts as leaked."""

    @pytest.fixture(scope="class")
    def snapshot_path(self, compiled, tmp_path_factory):
        path = tmp_path_factory.mktemp("release") / "model.hdms"
        compiled.save_snapshot(path)
        return path

    @pytest.fixture(scope="class")
    def texts(self, eval_examples):
        texts = list(dict.fromkeys(e.query for e in eval_examples))
        return texts[: 2 * MIN_VECTORIZED_BATCH]

    @staticmethod
    async def _serve_live(service, texts) -> weakref.ref:
        """Answer ``texts`` on the live generation, run its batch engine,
        and return a weak reference to it."""
        await service.detect_many(texts)
        detector = service._detector
        detector.detect_batch(texts)
        assert detector._engine is not None
        return weakref.ref(detector)

    @staticmethod
    def _without_cyclic_gc(main):
        gc.disable()
        try:
            return run(main())
        finally:
            gc.enable()

    def test_reload_frees_retired_generations(self, snapshot_path, texts):
        async def main():
            # The test keeps no reference to generation 1: the service
            # is its only owner.
            service = DetectionService(load_snapshot(snapshot_path))
            retired = []
            for _ in range(2):
                retired.append(await self._serve_live(service, texts))
                await service.reload(str(snapshot_path))
            live = await self._serve_live(service, texts)
            await service.close()
            return [ref() is None for ref in retired], live() is not None

        freed, live_kept = self._without_cyclic_gc(main)
        assert freed == [True, True]
        assert live_kept

    def test_replica_reload_op_frees_retired_generations(
        self, snapshot_path, texts
    ):
        async def main():
            service = DetectionService(load_snapshot(snapshot_path))
            server = ReplicaServer(service)
            retired = []
            for request_id in ("1", "2"):
                retired.append(await self._serve_live(service, texts))
                response = await server._respond(
                    {"id": request_id, "op": "reload", "snapshot": str(snapshot_path)}
                )
                assert response["ok"]
            await self._serve_live(service, texts)
            await service.close()
            return [ref() is None for ref in retired]

        assert self._without_cyclic_gc(main) == [True, True]
