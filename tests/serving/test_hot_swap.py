"""Zero-downtime hot swap: service, replica op, and rolling fleet reload.

The contract under test, at each layer:

- :meth:`DetectionService.reload` — the swap lands between batches
  (a batch runs inline on the event loop), so every answer comes from
  exactly one generation, the post-swap cache holds only new-generation
  results, later batches answer from the new model, and no request is
  dropped at any point.
- the replica ``reload`` op — swaps in place and reports the new model
  generation; a bad snapshot is refused with the old model untouched.
- :meth:`Router.reload` — rolls replicas one at a time, tracks each
  replica's ``model_generation``, and repoints the spawn command so
  later restarts load the new file.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import ModelError, ServerClosedError
from repro.runtime.lineage import save_versioned_snapshot
from repro.runtime.snapshot import load_snapshot
from repro.serving import DetectionService, ServingConfig
from repro.serving import service as service_module
from repro.serving.replica import ReplicaServer
from repro.serving.http import DetectionHTTPServer
from repro.serving.router import Router, RouterConfig

QUERIES = ["cheap iphone 5s case", "hotels in rome", "watch free movie online"]


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def compiled(model):
    return model.compile()


@pytest.fixture(scope="module")
def gen1_path(compiled, tmp_path_factory):
    path = tmp_path_factory.mktemp("swap") / "gen1.hdms"
    save_versioned_snapshot(compiled, path, generation=1, record_count=1500)
    return path


@pytest.fixture(scope="module")
def gen2_path(compiled, gen1_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("swap") / "gen2.hdms"
    save_versioned_snapshot(
        compiled, path, generation=2, record_count=1600, parent=gen1_path
    )
    return path


class _GenerationStub:
    """Stub model that tags each answer with its generation's name and
    records the batches it ran."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.batches: list[list[str]] = []

    def detect(self, text: str) -> str:
        return f"{self.name}[{text}]"

    def detect_batch(self, texts):
        self.batches.append(list(texts))
        return [self.detect(text) for text in texts]


def _cached(service) -> dict:
    """The result cache's contents, as ``{key: answer}``."""
    return {key: service._cache.get(key) for key in service.hot_keys(1_000)}


class TestServiceSwap:
    def test_swap_switches_model_and_reports_generation(
        self, compiled, gen1_path, gen2_path
    ):
        async def main():
            async with DetectionService(compiled) as service:
                assert service.model_generation == 1
                before = await service.detect(QUERIES[0])
                status, reloaded = await service.reload(str(gen2_path))
                assert status == 200
                assert reloaded["model_generation"] == 2
                assert service.model_generation == 2
                after = await service.detect(QUERIES[0])
                stats = service.stats()
                return before, after, stats

        before, after, stats = run(main())
        # Same model weights in both files, so detections agree — the
        # swap must be invisible to correctness.
        assert before == after == compiled.detect(QUERIES[0])
        assert stats["model_generation"] == 2
        assert stats["swaps"] == 1

    def test_generation_comes_from_lineage_at_construction(
        self, gen2_path
    ):
        async def main():
            detector = load_snapshot(gen2_path)
            try:
                async with DetectionService(detector) as service:
                    return service.model_generation
            finally:
                detector.close()

        assert run(main()) == 2

    def test_reload_amid_queued_batches_answers_one_generation(
        self, monkeypatch
    ):
        """A reload issued while batches are queued: every answer, and
        every batch, comes from exactly one generation, the post-swap
        cache holds only new-generation results, and everything admitted
        after the reload returns is answered by the new model."""
        old, new = _GenerationStub("old"), _GenerationStub("new")
        monkeypatch.setattr(
            service_module, "_load_versioned", lambda path: (new, 2)
        )
        queued = [f"queued {index}" for index in range(12)]
        after = [f"after {index}" for index in range(5)]

        async def main():
            config = ServingConfig(max_batch_size=3)
            async with DetectionService(old, config) as service:
                await service.detect("warm")  # an old-generation cache entry
                tasks = [asyncio.create_task(service.detect(q)) for q in queued]
                await asyncio.sleep(0)
                # Every query admitted, its batch queued or forming; none ran.
                assert service.pending == len(queued)
                assert old.batches == [["warm"]]
                await service.reload("gen2.hdms")
                cached_at_swap = _cached(service)
                answers = await asyncio.gather(*tasks)
                answers += await service.detect_many(after + ["warm"])
                return answers, cached_at_swap, _cached(service)

        answers, cached_at_swap, cached_after = run(main())
        for query, answer in zip(queued, answers):
            name = answer.split("[", 1)[0]
            assert answer == f"{name}[{query}]"
            # Answered by the one generation whose batch held it.
            ran = {
                stub.name: sum(batch.count(query) for batch in stub.batches)
                for stub in (old, new)
            }
            assert ran == {"old": int(name == "old"), "new": int(name == "new")}
        # After the swap: new answers only, the old cache entry gone.
        assert answers[len(queued):] == [f"new[{q}]" for q in after + ["warm"]]
        assert all(value.startswith("new[") for value in cached_at_swap.values())
        assert all(value.startswith("new[") for value in cached_after.values())
        assert "warm" in cached_after

    def test_no_request_dropped_across_swap_under_load(
        self, compiled, gen2_path
    ):
        queries = [f"cheap hotel {i}" for i in range(120)]

        async def main():
            async with DetectionService(compiled) as service:
                burst = asyncio.gather(*(service.detect(q) for q in queries))
                await asyncio.sleep(0)  # let the first batches dispatch
                await service.reload(str(gen2_path))
                results = await burst
                return results, service.stats()

        results, stats = run(main())
        assert len(results) == len(queries)
        assert not any(isinstance(r, Exception) for r in results)
        assert stats["rejected"] == 0

    def test_bad_snapshot_is_refused_and_service_keeps_serving(
        self, compiled, tmp_path
    ):
        bad = tmp_path / "bad.hdms"
        bad.write_bytes(b"not a snapshot")

        async def main():
            async with DetectionService(compiled) as service:
                with pytest.raises(ModelError):
                    await service.reload(str(bad))
                assert service.model_generation == 1
                return await service.detect(QUERIES[1])

        assert run(main()) == compiled.detect(QUERIES[1])

    def test_swap_after_close_raises(self, compiled, gen2_path):
        async def main():
            service = DetectionService(compiled)
            await service.close()
            with pytest.raises(ServerClosedError):
                await service.reload(str(gen2_path))

        run(main())

    def test_callers_detector_outlives_reload_and_close(
        self, compiled, gen2_path
    ):
        async def main():
            service = DetectionService(compiled)
            await service.reload(str(gen2_path))
            await service.close()

        run(main())
        # The caller's detector must still be usable afterwards.
        assert compiled.detect(QUERIES[0]) is not None


class TestReplicaReload:
    def test_reload_op_swaps_and_reports_generation(self, gen1_path, gen2_path):
        async def main():
            detector = load_snapshot(gen1_path)
            service = DetectionService(detector)
            server = ReplicaServer(service, replica_id=3)
            try:
                health = await server._respond({"id": "1", "op": "health"})
                assert health["model_generation"] == 1
                response = await server._respond(
                    {"id": "2", "op": "reload", "snapshot": str(gen2_path)}
                )
                assert response == {
                    "id": "2",
                    "ok": True,
                    "model_generation": 2,
                    "replica": 3,
                }
                stats = await server._respond({"id": "3", "op": "stats"})
                assert stats["stats"]["model_generation"] == 2
            finally:
                await service.close()
                detector.close()

        run(main())

    def test_reload_refusals_are_structured(self, gen1_path, tmp_path):
        bad = tmp_path / "bad.hdms"
        bad.write_bytes(b"junk")

        async def main():
            detector = load_snapshot(gen1_path)
            service = DetectionService(detector)
            server = ReplicaServer(service)
            try:
                missing = await server._respond({"id": "1", "op": "reload"})
                assert missing["kind"] == "bad_request"
                refused = await server._respond(
                    {"id": "2", "op": "reload", "snapshot": str(bad)}
                )
                assert refused["kind"] == "bad_request"
                assert not refused["ok"]
                # The old model is untouched by the refused swap.
                health = await server._respond({"id": "3", "op": "health"})
                assert health["model_generation"] == 1
            finally:
                await service.close()
                detector.close()

        run(main())


async def _start_fleet(gen1_path, count):
    """An in-process fleet: N real replica servers attached to a router."""
    servers = []
    for replica_id in range(count):
        detector = load_snapshot(gen1_path)
        server = ReplicaServer(DetectionService(detector), replica_id=replica_id)
        await server.start()
        servers.append((server, detector))
    router = Router(RouterConfig(health_interval_s=30.0))
    for server, _ in servers:
        router.attach("127.0.0.1", server.port)
    await router.start()
    return router, servers


async def _stop_fleet(router, servers):
    await router.close()
    for server, detector in servers:
        await server.stop()
        detector.close()


class TestRouterReload:
    def test_rolling_reload_bumps_every_replica(self, gen1_path, gen2_path):
        async def main():
            router, servers = await _start_fleet(gen1_path, 2)
            try:
                assert [h.model_generation for h in router.replicas] == [1, 1]
                status, result = await router.reload(str(gen2_path))
                assert status == 200
                assert result["reloaded"] == 2
                assert all(
                    entry["ok"] and entry["model_generation"] == 2
                    for entry in result["replicas"].values()
                )
                assert [h.model_generation for h in router.replicas] == [2, 2]
                status, health = router.healthz()
                assert status == 200
                assert health["status"] == "ok" and health["up"] == 2
                stats = await router.stats()
                assert stats["fleet"]["model_generation"] == {
                    "min": 2,
                    "max": 2,
                }
                # The fleet still answers after the roll.
                detection = await router.detect(QUERIES[0])
                assert detection["query"] == QUERIES[0]
            finally:
                await _stop_fleet(router, servers)

        run(main())

    def test_reload_repoints_spawn_command(self, gen1_path, gen2_path):
        async def main():
            router, servers = await _start_fleet(gen1_path, 1)
            # Simulate a managed fleet: reload must rewrite the snapshot
            # argument so the next restart spawns on the new file.
            router._spawn_command = [
                "python", "-m", "repro.cli", "replica",
                "--snapshot", str(gen1_path), "--port", "0",
            ]
            try:
                await router.reload(str(gen2_path))
                anchor = router._spawn_command.index("--snapshot")
                assert router._spawn_command[anchor + 1] == str(gen2_path)
            finally:
                await _stop_fleet(router, servers)

        run(main())

    def test_bad_snapshot_never_touches_the_fleet(self, gen1_path, tmp_path):
        bad = tmp_path / "bad.hdms"
        bad.write_bytes(b"garbage")

        async def main():
            router, servers = await _start_fleet(gen1_path, 2)
            try:
                with pytest.raises(ModelError):
                    await router.reload(str(bad))
                assert [h.model_generation for h in router.replicas] == [1, 1]
                assert router.healthz()[1]["up"] == 2
            finally:
                await _stop_fleet(router, servers)

        run(main())

    def test_http_reload_route(self, gen1_path, gen2_path):
        async def main():
            router, servers = await _start_fleet(gen1_path, 2)
            http = DetectionHTTPServer(router)
            try:
                body = json.dumps({"snapshot": str(gen2_path)}).encode()
                status, payload = await http._respond("POST", "/reload", body)
                assert status == 200
                assert payload["reloaded"] == 2
                status, payload = await http._respond("POST", "/reload", b"{}")
                assert status == 400
                status, payload = await http._respond("GET", "/reload", b"")
                assert status == 405
                # With no replica left to swap, the roll is a 502.
                for server, _ in servers:
                    await server.stop()
                await router.check_health()
                status, payload = await http._respond("POST", "/reload", body)
                assert status == 502
                assert payload["reloaded"] == 0
            finally:
                await _stop_fleet(router, servers)

        run(main())
