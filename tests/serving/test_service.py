"""Serving-layer contract: every response the micro-batched, cached,
single-flighted path produces must be bit-identical to one-shot
``CompiledDetector.detect``, and the control machinery (admission,
drain) must behave deterministically.

Batches run inline on the event loop, so a stub detector must never
block. The states a parked batch used to freeze are reached by loop
scheduling instead: N ``detect`` tasks started before one yield are all
admitted, and the batches they dispatch are queued but have not run."""

from __future__ import annotations

import asyncio
import gc
import threading
import weakref

import pytest

from repro.errors import ServerClosedError, ServerOverloadedError, ServingError
from repro.runtime import load_snapshot
from repro.runtime.compiled import MIN_VECTORIZED_BATCH
from repro.serving import DetectionService, MicroBatcher, ServingConfig
from repro.serving.replica import ReplicaServer


def run(coro):
    return asyncio.run(coro)


class StubDetector:
    """Records batch composition; fails on poisoned texts."""

    def __init__(self, poison: set[str] | None = None):
        self.poison = poison or set()
        self.batches: list[list[str]] = []

    def detect(self, text: str) -> str:
        if text in self.poison:
            raise ValueError(f"poisoned text: {text!r}")
        return f"detection[{text}]"

    def detect_batch(self, texts):
        self.batches.append(list(texts))
        return [self.detect(text) for text in texts]


@pytest.fixture(scope="module")
def compiled(model):
    return model.compile()


class TestServingParity:
    def test_eval_set_bit_identical(self, compiled, eval_examples):
        """Cached, deduped, and micro-batched responses over the full
        held-out eval set — with heavy repetition — equal one-shot
        ``detect`` exactly (Detection dataclass equality, floats and
        all)."""
        queries = [example.query for example in eval_examples]
        # Repeats exercise all three fast paths: same-batch dedup
        # (single-flight), cross-batch repeats (result cache), and
        # fresh queries (micro-batched detection).
        traffic = queries + queries[::2] + queries[:50] + queries[::-3]
        config = ServingConfig(max_batch_size=16)

        async def serve_all():
            async with DetectionService(compiled, config) as service:
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
        # Every request was answered by exactly one of the three paths.
        cache_hits = stats["cache"]["hits"]
        assert (
            stats["detected"] + stats["coalesced"] + cache_hits == len(traffic)
        )
        # Single-flight + cache: no query is ever detected twice.
        assert stats["detected"] <= len(set(traffic))
        assert stats["batches"] >= 1
        assert all(
            int(size) <= config.max_batch_size for size in stats["batch_sizes"]
        )
        # Coalesced batches run the array-at-a-time engine, and /stats
        # says so (compiled detectors without a speller vectorize).
        assert stats["vectorized"] is True

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


class TestSingleFlight:
    def test_identical_inflight_queries_detect_once(self):
        stub = StubDetector()
        config = ServingConfig(max_batch_size=64, cache_size=0)

        async def serve():
            async with DetectionService(stub, config) as service:
                results = await service.detect_many(["same query"] * 25)
                return results, service.stats()

        results, stats = run(serve())
        assert results == ["detection[same query]"] * 25
        assert stub.batches == [["same query"]]  # one detection total
        assert stats["coalesced"] == 24
        assert stats["detected"] == 1

    def test_batches_contain_only_unique_keys(self):
        stub = StubDetector()
        config = ServingConfig(max_batch_size=8, cache_size=0)
        traffic = ["a", "b", "a", "c", "b", "a", "d"]

        async def serve():
            async with DetectionService(stub, config) as service:
                return await service.detect_many(traffic)

        results = run(serve())
        assert results == [f"detection[{text}]" for text in traffic]
        for batch in stub.batches:
            assert len(batch) == len(set(batch))


class TestMicroBatching:
    def test_burst_coalesces_and_respects_max_batch_size(self):
        stub = StubDetector()
        config = ServingConfig(max_batch_size=4, cache_size=0)
        queries = [f"query {index}" for index in range(10)]

        async def serve():
            async with DetectionService(stub, config) as service:
                return await service.detect_many(queries)

        results = run(serve())
        assert results == [f"detection[{text}]" for text in queries]
        assert all(len(batch) <= 4 for batch in stub.batches)
        assert max(len(batch) for batch in stub.batches) == 4  # real batching
        assert sorted(sum(stub.batches, [])) == sorted(queries)

    def test_lone_request_dispatches_without_waiting(self):
        """An idle batcher has no timer: a lone request is dispatched
        before one ``asyncio.sleep(0)`` returns."""
        dispatched: list[list[str]] = []

        async def runner(items):
            dispatched.append(list(items))
            return [f"done[{item}]" for item in items]

        async def serve():
            batcher = MicroBatcher(runner)
            future = batcher.submit_nowait("lonely")
            await asyncio.sleep(0)
            seen = list(dispatched)
            return seen, await future

        assert run(serve()) == ([["lonely"]], "done[lonely]")

    def test_arrivals_during_a_batch_form_the_next_batch(self):
        """Requests that arrive between a batch's dispatch and its run
        accumulate into the next batch; a forming batch that reaches
        ``max_batch_size`` dispatches at once, and the rest go when a
        batch finishes."""
        stub = StubDetector()
        config = ServingConfig(max_batch_size=3, cache_size=0)
        queries = ["a", "b", "c", "d", "e", "f"]

        async def serve():
            async with DetectionService(stub, config) as service:
                tasks = [asyncio.create_task(service.detect(q)) for q in queries]
                await asyncio.sleep(0)
                # All six admitted: "a" dispatched alone, "b c d" filled a
                # batch behind it, "e f" are forming; nothing has run.
                assert service.pending == 6
                assert stub.batches == []
                return await asyncio.gather(*tasks)

        results = run(serve())
        assert results == [f"detection[{q}]" for q in queries]
        assert stub.batches == [["a"], ["b", "c", "d"], ["e", "f"]]

    def test_per_request_errors_spare_batch_mates(self):
        stub = StubDetector(poison={"bad"})
        config = ServingConfig(max_batch_size=8, cache_size=0)

        async def serve():
            async with DetectionService(stub, config) as service:
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

    def test_poisoned_result_is_not_cached(self):
        stub = StubDetector(poison={"bad"})
        config = ServingConfig(max_batch_size=4)

        async def serve():
            async with DetectionService(stub, config) as service:
                for _ in range(2):
                    with pytest.raises(ValueError):
                        await service.detect("bad")
                return service.stats()

        stats = run(serve())
        assert stats["cache"]["size"] == 0
        assert stats["detected"] == 2  # retried, never served from cache


class TestAdmissionControl:
    def test_overload_raises_deterministically(self):
        stub = StubDetector()
        config = ServingConfig(
            max_batch_size=1, max_pending=2, cache_size=0
        )

        async def serve():
            service = DetectionService(stub, config)
            first = asyncio.create_task(service.detect("a"))
            second = asyncio.create_task(service.detect("b"))
            await asyncio.sleep(0)  # both admitted, their batches queued
            assert service.pending == 2
            assert stub.batches == []
            with pytest.raises(ServerOverloadedError) as excinfo:
                await service.detect("c")
            # Awaiting lets the queued batches run; the queue drains.
            assert await first == "detection[a]"
            assert await second == "detection[b]"
            stats = service.stats()
            await service.close()
            return excinfo.value, stats

        error, stats = run(serve())
        assert "2 queries" in str(error)
        assert stats["rejected"] == 1
        assert stats["detected"] == 2

    def test_coalesced_requests_bypass_admission(self):
        """Joining an in-flight query consumes no queue slot: dedup means
        a thundering herd of one hot query cannot trip overload."""
        stub = StubDetector()
        config = ServingConfig(
            max_batch_size=1, max_pending=1, cache_size=0
        )

        async def serve():
            service = DetectionService(stub, config)
            tasks = [
                asyncio.create_task(service.detect("hot")) for _ in range(10)
            ]
            await asyncio.sleep(0)
            # One slot, ten callers: the first holds it, nine joined it,
            # and its batch is queued but has not run.
            assert service.pending == 1
            assert stub.batches == []
            results = await asyncio.gather(*tasks)
            stats = service.stats()
            await service.close()
            return results, stats

        results, stats = run(serve())
        assert results == ["detection[hot]"] * 10
        assert stats["rejected"] == 0
        assert stats["coalesced"] == 9


class TestLifecycle:
    def test_close_drains_inflight_requests(self):
        stub = StubDetector()
        config = ServingConfig(max_batch_size=64)

        async def serve():
            service = DetectionService(stub, config)
            pending = [
                asyncio.create_task(service.detect(f"query {index}"))
                for index in range(5)
            ]
            closing = asyncio.create_task(service.close())
            await asyncio.sleep(0)
            # close() began with "query 0" dispatched but not run and the
            # other four forming behind it: it flushed them and waits.
            assert service.closed and not closing.done()
            assert service.pending == 5
            assert stub.batches == []
            await closing
            assert service.pending == 0  # close returned fully drained
            return await asyncio.gather(*pending)

        results = run(serve())
        assert results == [f"detection[query {index}]" for index in range(5)]
        assert stub.batches == [
            ["query 0"],
            [f"query {index}" for index in range(1, 5)],
        ]

    def test_detect_after_close_raises(self):
        async def serve():
            service = DetectionService(StubDetector())
            await service.close()
            with pytest.raises(ServerClosedError):
                await service.detect("too late")
            await service.close()  # idempotent

        run(serve())

    def test_serving_starts_no_thread(self, compiled, eval_examples):
        """Batches run inline on the event loop: serving requests
        through a service, batched and single, starts no thread."""
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
            ServingConfig(max_pending=0)
        with pytest.raises(ServingError):
            ServingConfig(cache_size=-1)
        with pytest.raises(ValueError):
            MicroBatcher(lambda items: items, max_batch_size=0)

    def test_cache_disabled(self):
        stub = StubDetector()
        config = ServingConfig(max_batch_size=2, cache_size=0)

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
        config = ServingConfig(max_batch_size=2, cache_size=0)

        async def serve():
            async with DetectionService(stub, config) as service:
                await service.detect("q")
                return service.hot_keys()

        assert run(serve()) == []


class TestPromptRelease:
    """A swapped-out model is freed by reference counting once its last
    batch returns, so a service holds at most the live generation plus
    the one loading. The cyclic collector is off throughout: a retired
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
