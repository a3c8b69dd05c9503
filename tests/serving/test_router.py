"""Router: hash-ring affinity, failover, shedding, aggregated stats.

Replicas here are mostly in-process :class:`ReplicaServer` instances
attached by address (no subprocesses), so every fleet behaviour —
affinity, re-route on death, reattach, overload propagation — is tested
deterministically and fast. :class:`TestRouterHealth` also spawns real
replica processes to test the managed restart path.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import (
    ReplicaUnavailableError,
    ServerClosedError,
    ServerOverloadedError,
    ServingError,
)
from repro.serving import (
    DetectionHTTPServer,
    DetectionService,
    detection_payload,
    run_server,
)
import repro.serving.router as router_module
from repro.serving.replica import ReplicaServer
from repro.serving.router import (
    ConsistentHashRing,
    ReplicaClient,
    ReplicaHandle,
    Router,
    RouterConfig,
)
from repro.text.normalizer import normalize_fast

QUERIES = [
    "cheap hotels in rome",
    "iphone 5s case",
    "toyota camry 2012 price",
    "best pizza new york",
    "laptop backpack",
    "michael jackson songs",
    "flights to tokyo",
    "running shoes for women",
]


@pytest.fixture(scope="module")
def compiled(model):
    return model.compile()


@pytest.fixture(scope="module")
def snapshot_path(compiled, tmp_path_factory):
    path = tmp_path_factory.mktemp("router") / "model.hdms"
    compiled.save_snapshot(path)
    return path


class TestConsistentHashRing:
    def test_mapping_is_deterministic_and_total(self):
        ring = ConsistentHashRing(["r0", "r1", "r2"])
        for query in QUERIES:
            assert ring.node_for(query) == ring.node_for(query)
            assert ring.node_for(query) in {"r0", "r1", "r2"}

    def test_all_nodes_receive_keys(self):
        ring = ConsistentHashRing(["r0", "r1", "r2"])
        owners = {ring.node_for(f"query number {i}") for i in range(500)}
        assert owners == {"r0", "r1", "r2"}

    def test_removing_a_node_only_remaps_its_keys(self):
        """The consistent-hashing contract: keys owned by surviving
        nodes keep their owner when one node leaves the `up` set."""
        ring = ConsistentHashRing(["r0", "r1", "r2"])
        keys = [f"query number {i}" for i in range(500)]
        before = {key: ring.node_for(key) for key in keys}
        after = {key: ring.node_for(key, up=["r0", "r2"]) for key in keys}
        for key in keys:
            if before[key] != "r1":
                assert after[key] == before[key]
            else:
                assert after[key] in {"r0", "r2"}

    def test_nodes_for_yields_distinct_failover_order(self):
        ring = ConsistentHashRing(["r0", "r1", "r2"], vnodes=8)
        order = list(ring.nodes_for("cheap hotels in rome"))
        assert sorted(order) == ["r0", "r1", "r2"]
        assert order[0] == ring.node_for("cheap hotels in rome")

    def test_empty_ring_and_empty_up_set(self):
        assert ConsistentHashRing().node_for("x") is None
        ring = ConsistentHashRing(["r0"])
        assert ring.node_for("x", up=[]) is None

    def test_duplicate_node_is_refused(self):
        ring = ConsistentHashRing(["r0"])
        with pytest.raises(ServingError, match="already"):
            ring.add("r0")

    def test_up_set_of_unknown_nodes_routes_nowhere(self):
        ring = ConsistentHashRing(["r0"])
        assert ring.node_for("x", up=["r9"]) is None
        assert list(ring.nodes_for("x", up=["r9"])) == []

    @settings(deadline=None, max_examples=20)
    @given(st.integers(1, 8))
    def test_scale_up_then_down_remaps_minimally(self, n):
        """Adding a node moves keys only *onto* it (~K/(N+1) of them),
        and dropping it from the ``up`` set — how the router routes
        around a dead replica — restores the exact previous mapping."""
        ring = ConsistentHashRing([f"r{i}" for i in range(n)])
        keys = [f"query number {i}" for i in range(400)]
        before = {key: ring.node_for(key) for key in keys}
        ring.add(f"r{n}")
        after = {key: ring.node_for(key) for key in keys}
        moved = [key for key in keys if after[key] != before[key]]
        assert all(after[key] == f"r{n}" for key in moved)
        # ~K/(N+1) keys move; vnode smoothing keeps it within ~3x.
        assert len(moved) <= 3 * len(keys) / (n + 1)
        survivors = [f"r{i}" for i in range(n)]
        assert {key: ring.node_for(key, up=survivors) for key in keys} == before


class TestRouterConfig:
    def test_validation(self):
        with pytest.raises(ServingError, match="max_inflight"):
            RouterConfig(max_inflight=0)
        with pytest.raises(ServingError, match="hedge_rate"):
            RouterConfig(hedge_rate=1.5)
        with pytest.raises(ServingError, match="hedge thresholds"):
            RouterConfig(hedge_p99_us=-1)
        with pytest.raises(ServingError, match="warmup_keys"):
            RouterConfig(warmup_keys=-1)


class _FakeClock:
    """Injectable monotonic clock for deterministic backoff tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _fleet(compiled, count, config=None):
    """An async context manager: a router attached to ``count``
    in-process replica servers."""

    class _Fleet:
        async def __aenter__(self):
            self.servers = []
            for replica_id in range(count):
                server = ReplicaServer(
                    DetectionService(compiled),
                    port=0,
                    replica_id=replica_id,
                    generation=1,
                )
                await server.start()
                self.servers.append(server)
            self.router = Router(config or RouterConfig(health_interval_s=30.0))
            for server in self.servers:
                self.router.attach("127.0.0.1", server.port)
            await self.router.start()
            return self.router, self.servers

        async def __aexit__(self, *exc_info):
            await self.router.close()
            for server in self.servers:
                await server.stop()

    return _Fleet()


class TestRouterRequestPath:
    def test_detect_is_bit_identical_to_local(self, compiled):
        async def main():
            async with _fleet(compiled, 3) as (router, _servers):
                return {q: await router.detect(q) for q in QUERIES}

        results = asyncio.run(main())
        for query, payload in results.items():
            expected = detection_payload(compiled.detect(query))
            assert json.dumps(payload, sort_keys=True) == json.dumps(
                expected, sort_keys=True
            )

    def test_same_query_sticks_to_one_replica(self, compiled):
        """Cache affinity: repeats of a query always hit the replica
        owning its normalized form on the ring."""

        async def main():
            async with _fleet(compiled, 3) as (router, servers):
                for _ in range(6):
                    for query in QUERIES:
                        await router.detect(query)
                per_replica = [
                    server.backend.stats()["requests"] for server in servers
                ]
                owners = {
                    router._ring.node_for(normalize_fast(q)) for q in QUERIES
                }
                return per_replica, owners

        per_replica, owners = asyncio.run(main())
        # Every repeat goes to the owner: totals are multiples of 6.
        assert sum(per_replica) == 6 * len(QUERIES)
        assert all(count % 6 == 0 for count in per_replica)
        assert len(owners) > 1  # the queries actually spread

    def test_dead_replica_reroutes_without_dropping_requests(self, compiled):
        """Kill one replica mid-load: its arc re-routes to live nodes,
        every request is still answered, and healthz degrades."""

        async def main():
            async with _fleet(compiled, 3) as (router, servers):
                for query in QUERIES:
                    await router.detect(query)
                await servers[0].stop()  # replica dies abruptly
                results = {}
                for query in QUERIES + ["brand new query after death"]:
                    results[query] = await router.detect(query)
                return results, router.healthz()[1]

        results, health = asyncio.run(main())
        assert len(results) == len(QUERIES) + 1
        for query, payload in results.items():
            assert payload["query"] == normalize_fast(query)
        assert health["status"] == "degraded"
        assert health["up"] == 2

    def test_all_replicas_down_is_503_semantics(self, compiled):
        async def main():
            async with _fleet(compiled, 2) as (router, servers):
                for server in servers:
                    await server.stop()
                with pytest.raises(ServerOverloadedError, match="no replica"):
                    for _ in range(3):  # first calls may consume marks
                        await router.detect("cheap hotels in rome")

        asyncio.run(main())

    def test_router_admission_sheds_at_max_inflight(self, compiled):
        async def main():
            config = RouterConfig(max_inflight=1, health_interval_s=30.0)
            async with _fleet(compiled, 2, config) as (router, _servers):
                router._inflight = 1  # simulate a stuck in-flight request
                with pytest.raises(ServerOverloadedError, match="capacity"):
                    await router.detect("x")
                router._inflight = 0
                assert (await router.detect("cheap hotels in rome"))["head"]
                return router.metrics.stats()["counters"]

        counters = asyncio.run(main())
        assert counters["shed"] == 1

    def test_replica_overload_propagates_as_shed(self, compiled):
        """Tier-2 shedding: the owning replica's admission rejection is
        surfaced to the caller, not retried onto another replica."""

        class _ShedService:
            closed = False
            model_generation = 1

            async def detect(self, text):
                raise ServerOverloadedError("replica queue full")

            async def close(self):
                pass

        async def main():
            server = ReplicaServer(_ShedService(), port=0)
            await server.start()
            router = Router(RouterConfig(health_interval_s=30.0))
            router.attach("127.0.0.1", server.port)
            await router.start()
            try:
                with pytest.raises(ServerOverloadedError, match="queue full"):
                    await router.detect("x")
            finally:
                await router.close()
                await server.stop()

        asyncio.run(main())

    def test_closed_router_refuses_requests(self, compiled):
        async def main():
            async with _fleet(compiled, 1) as (router, _servers):
                await router.close()
                with pytest.raises(ServerClosedError):
                    await router.detect("x")

        asyncio.run(main())


class TestRouterHealth:
    def test_check_health_marks_down_and_reattaches(self, compiled):
        async def main():
            async with _fleet(compiled, 2) as (router, servers):
                victim = router.replicas[0]
                port = victim.port
                await servers[0].stop()
                await router.check_health()
                assert victim.state == "down"
                assert router.healthz()[1]["status"] == "degraded"
                # The replica comes back on the same address; the next
                # health pass reattaches it.
                revived = ReplicaServer(DetectionService(compiled), port=port)
                await revived.start()
                try:
                    await router.check_health()
                    assert victim.state == "up"
                    assert router.healthz()[1]["status"] == "ok"
                finally:
                    await revived.stop()

        asyncio.run(main())

    def test_replica_handle_describe(self):
        handle = ReplicaHandle("r7", 7)
        handle.generation = 3
        record = handle.describe()
        assert record["state"] == "starting"
        assert record["generation"] == 3
        assert record["managed"] is False

    def test_start_without_replicas_is_an_error(self):
        async def main():
            with pytest.raises(ServingError, match="no replicas"):
                await Router().start()

        asyncio.run(main())

    def test_start_with_all_replicas_dead_raises(self, compiled):
        async def main():
            router = Router(RouterConfig(health_interval_s=30.0))
            router.attach("127.0.0.1", 1)  # nothing listens there
            with pytest.raises(ServingError, match="no replica came up"):
                await router.start()

        asyncio.run(main())

    def test_killed_replica_is_restarted_warm(
        self, compiled, snapshot_path, monkeypatch
    ):
        """SIGKILL a spawned replica: the next health pass restarts it as
        generation 2, warms it from its sibling's cache before it takes
        traffic, and the fleet's answers stay bit-identical."""
        src = str(Path(repro.__file__).parents[1])
        monkeypatch.setenv(
            "PYTHONPATH", src + os.pathsep + os.environ.get("PYTHONPATH", "")
        )

        async def main():
            router = Router(RouterConfig(health_interval_s=30.0, warmup_keys=64))
            router.spawn(str(snapshot_path), 2)
            await router.start()
            try:
                queries = [
                    _owned_query(router, owner, template=f"query {{}} topic {k}")
                    for owner in ("r0", "r1")
                    for k in range(4)
                ]
                for query in queries:
                    await router.detect(query)
                victim = router.replicas[1]
                process = victim.process
                process.kill()
                await process.wait()
                # r1's arc fails over to r0 and heats r0's cache with
                # r1-owned keys: the donor material for the warm-up.
                for query in queries:
                    await router.detect(query)
                assert victim.state == "down"
                await router.check_health()
                restarted = (victim.generation, victim.restarts, victim.state)
                stats = await router.stats()
                results = {q: await router.detect(q) for q in queries + QUERIES}
                return restarted, stats, results
            finally:
                await router.close()

        restarted, stats, results = asyncio.run(main())
        assert restarted == (2, 1, "up")
        assert stats["router"]["counters"]["restarts"] == 1
        assert stats["router"]["counters"]["warmed_keys"] >= 4
        # Replayed through r1 before it took any live traffic.
        assert stats["replicas"]["r1"]["stats"]["requests"] >= 4
        assert stats["replicas"]["r1"]["generation"] == 2
        for query, payload in results.items():
            assert payload == detection_payload(compiled.detect(query))

    def test_dead_replica_reports_its_exit_code(self):
        """A replica that dies before its ready line is reaped first, so
        the error names its real exit code rather than ``None``."""

        async def main():
            router = Router(RouterConfig(health_interval_s=30.0))
            (handle,) = router.spawn("unused.hdms", 1)
            router._spawn_command = [sys.executable, "-c", "raise SystemExit(3)"]
            with pytest.raises(ReplicaUnavailableError, match=r"code 3\)"):
                await router._spawn_one(handle)

        asyncio.run(main())


class TestReplicaClient:
    def test_request_against_dead_port_is_unavailable(self):
        async def main():
            client = ReplicaClient("127.0.0.1", 1)
            with pytest.raises((ReplicaUnavailableError, OSError)):
                await client.connect()
            with pytest.raises(ReplicaUnavailableError, match="not connected"):
                await client.request({"op": "health"})

        asyncio.run(main())

    def test_connection_death_fails_pending_requests(self):
        """A server that hangs up without answering fails the in-flight
        request with ReplicaUnavailableError instead of hanging it."""

        async def main():
            async def hang_up(reader, writer):
                await reader.read(64)  # swallow the request, answer nothing
                writer.close()

            server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = ReplicaClient("127.0.0.1", port)
            await client.connect()
            with pytest.raises(ReplicaUnavailableError):
                await client.request({"op": "health"}, timeout=10)
            await client.close()
            server.close()
            await server.wait_closed()

        asyncio.run(main())


class TestRouterStats:
    def test_aggregated_stats_merge_the_fleet(self, compiled):
        async def main():
            async with _fleet(compiled, 2) as (router, _servers):
                for _ in range(2):
                    for query in QUERIES:
                        await router.detect(query)
                return await router.stats()

        stats = asyncio.run(main())
        total = 2 * len(QUERIES)
        assert stats["router"]["replicas"] == 2
        assert stats["router"]["up"] == 2
        assert stats["router"]["stages"]["request"]["count"] == total
        assert stats["router"]["stages"]["forward"]["count"] == total
        fleet = stats["fleet"]
        assert fleet["requests"] == total
        # Second pass is answered by replica result caches.
        assert fleet["cache"]["hits"] == len(QUERIES)
        assert 0.0 < fleet["cache"]["hit_rate"] <= 1.0
        # Stage histograms merged bucket-wise across replicas.
        assert fleet["stages"]["request"]["count"] == total
        assert fleet["stages"]["detect"]["count"] >= 1
        assert "p99_us" in fleet["stages"]["request"]
        for name, entry in stats["replicas"].items():
            assert entry["state"] == "up"
            assert entry["stats"]["requests"] >= 1, name

    def test_stats_is_json_serializable(self, compiled):
        async def main():
            async with _fleet(compiled, 2) as (router, _servers):
                await router.detect("cheap hotels in rome")
                return await router.stats()

        assert json.loads(json.dumps(asyncio.run(main())))


class TestRouterHTTP:
    """Router-only answers of the shared HTTP front door; the routes both
    backends answer alike are in ``test_http.py::TestConformance``."""

    def test_http_front_door_routes(self, compiled):
        async def main():
            async with _fleet(compiled, 2) as (router, servers):
                server = DetectionHTTPServer(router, port=0)
                await server.start()
                try:
                    port = server.port
                    health = await _http(port, "GET", "/healthz")
                    stats = await _http(port, "GET", "/stats")
                    for replica_server in servers:
                        await replica_server.stop()
                    await router.check_health()  # observe the deaths
                    down = await _http(port, "GET", "/healthz")
                    return health, stats, down
                finally:
                    await server.stop()  # also closes the fleet

        health, stats, down = asyncio.run(main())
        assert health == (200, {"status": "ok", "up": 2,
                                "replicas": {"r0": "up", "r1": "up"}})
        assert stats[1]["router"]["replicas"] == 2
        assert down[0] == 503  # no replica up -> healthz is 503

    def test_run_router_serves_and_drains_on_sigterm(self, compiled):
        """The ``repro route`` run loop: comes up, answers, closes the
        fleet when run_server receives SIGTERM."""

        async def main():
            server = ReplicaServer(DetectionService(compiled), port=0)
            await server.start()
            router = Router(RouterConfig(health_interval_s=30.0))
            router.attach("127.0.0.1", server.port)
            ready = asyncio.Event()
            bound = {}

            def on_ready(port):
                bound["port"] = port
                ready.set()

            await router.start()
            task = asyncio.create_task(
                run_server(DetectionHTTPServer(router, port=0), ready=on_ready)
            )
            await asyncio.wait_for(ready.wait(), timeout=30)
            status, payload = await _http(
                bound["port"],
                "POST",
                "/detect",
                json.dumps({"query": "cheap hotels in rome"}),
            )
            assert status == 200
            os.kill(os.getpid(), signal.SIGTERM)
            await asyncio.wait_for(task, timeout=30)
            assert router.closed
            await server.stop()

        asyncio.run(main())


class _SlowService:
    """Delegates to a real DetectionService, stalling queries that
    contain a marker — an injected intermittent straggler."""

    def __init__(self, compiled, marker="sleepy", delay_s=0.5):
        self._inner = DetectionService(compiled)
        self._marker = marker
        self._delay_s = delay_s

    @property
    def closed(self):
        return self._inner.closed

    @property
    def model_generation(self):
        return self._inner.model_generation

    async def detect(self, text):
        if self._marker in text:
            await asyncio.sleep(self._delay_s)
        return await self._inner.detect(text)

    def stats(self):
        return self._inner.stats()

    def hot_keys(self, n):
        return self._inner.hot_keys(n)

    async def close(self):
        await self._inner.close()


def _owned_query(router, owner, template="query {} about hotels", marker=""):
    """A query string whose normalized form the ring assigns to ``owner``."""
    for n in range(10_000):
        query = f"{marker}{template.format(n)}".strip()
        if router._ring.node_for(normalize_fast(query)) == owner:
            return query
    raise AssertionError(f"no query found for owner {owner}")


class TestHedging:
    #: Windowed per-replica p99 must clear this to arm hedging — far
    #: above a healthy in-process round trip, far below the stall.
    HEDGE_P99_US = 100_000.0

    def _hedging_fleet(self, compiled, hedge_rate=1.0, delay_s=0.5):
        config = RouterConfig(
            health_interval_s=30.0,
            hedge_p99_us=self.HEDGE_P99_US,
            hedge_min_delay_us=5_000.0,
            hedge_rate=hedge_rate,
            warmup_keys=0,
        )

        class _Fleet:
            async def __aenter__(self):
                self.slow = ReplicaServer(
                    _SlowService(compiled, delay_s=delay_s), port=0
                )
                self.fast = ReplicaServer(DetectionService(compiled), port=0)
                await self.slow.start()
                await self.fast.start()
                self.router = Router(config)
                self.router.attach("127.0.0.1", self.slow.port)  # r0
                self.router.attach("127.0.0.1", self.fast.port)  # r1
                await self.router.start()
                return self.router

            async def __aexit__(self, *exc_info):
                await self.router.close()
                await self.slow.stop()
                await self.fast.stop()

        return _Fleet()

    async def _prime_straggler(self, router):
        """Make r0 look like an intermittent straggler: many fast
        requests keep the fleet's windowed p95 (the hedge delay) low,
        one stalled request pushes r0's windowed p99 (the trigger) over
        the budget — exactly the shape hedging is designed for."""
        for index in range(20):
            await router.detect(
                _owned_query(router, "r0", template=f"fast {{}} item {index}")
            )
        first_stall = _owned_query(router, "r0", marker="sleepy priming ")
        await router.detect(first_stall)  # unhedged: p99 still low

    def test_hedge_fires_and_first_response_wins(self, compiled):
        """A straggler-owned query is answered by the backup replica in
        well under the straggler's stall, with an identical payload; the
        stalled owner response is discarded."""

        async def main():
            async with self._hedging_fleet(compiled) as router:
                await self._prime_straggler(router)
                assert router.metrics.stats()["counters"]["hedges_fired"] == 0
                stuck = _owned_query(router, "r0", marker="sleepy ")
                start = perf_counter()
                payload = await router.detect(stuck)
                elapsed = perf_counter() - start
                counters = router.metrics.stats()["counters"]
                return payload, elapsed, counters, stuck

        payload, elapsed, counters, stuck = asyncio.run(main())
        assert payload == detection_payload(compiled.detect(stuck))
        assert elapsed < 0.4  # far below the 0.5s stall: the hedge won
        assert counters["hedges_fired"] == 1
        assert counters["hedges_won"] == 1
        assert counters["hedges_suppressed"] == 0

    def test_hedge_budget_suppresses_when_spent(self, compiled):
        """hedge_rate=0 means the budget is always spent: the request
        waits out the straggler and the suppression is counted."""

        async def main():
            async with self._hedging_fleet(
                compiled, hedge_rate=0.0, delay_s=0.15
            ) as router:
                await self._prime_straggler(router)
                stuck = _owned_query(router, "r0", marker="sleepy ")
                start = perf_counter()
                payload = await router.detect(stuck)
                elapsed = perf_counter() - start
                return payload, elapsed, router.metrics.stats()["counters"], stuck

        payload, elapsed, counters, stuck = asyncio.run(main())
        assert payload == detection_payload(compiled.detect(stuck))
        assert elapsed >= 0.14  # served by the straggler itself
        assert counters["hedges_fired"] == 0
        assert counters["hedges_won"] == 0
        assert counters["hedges_suppressed"] == 1

    def test_healthy_owner_never_pays_for_hedging(self, compiled):
        """Queries owned by the fast replica are answered by it alone:
        arming is per-owner p99, so a healthy replica costs nothing even
        while its neighbour is a known straggler."""

        async def main():
            async with self._hedging_fleet(compiled) as router:
                await self._prime_straggler(router)
                for index in range(10):
                    await router.detect(
                        _owned_query(
                            router, "r1", template=f"calm {{}} item {index}"
                        )
                    )
                return router.metrics.stats()["counters"]

        counters = asyncio.run(main())
        assert counters["hedges_fired"] == 0
        assert counters["hedges_suppressed"] == 0


class TestWarmup:
    def test_reattached_replica_is_warmed_from_its_sibling(self, compiled):
        """Kill r1, let its arc spill onto r0, revive r1 cold: the
        reattach warm-up must replay r1's keys from r0's hot list, so
        r1's first owned query is already a cache hit."""

        async def main():
            config = RouterConfig(health_interval_s=30.0, warmup_keys=64)
            async with _fleet(compiled, 2, config) as (router, servers):
                queries = [
                    _owned_query(router, owner, template=f"query {{}} topic {k}")
                    for owner in ("r0", "r1")
                    for k in range(4)
                ]
                for query in queries:
                    await router.detect(query)
                victim = router.replicas[1]
                port = victim.port
                await servers[1].stop()
                await router.check_health()
                assert victim.state == "down"
                # r1's arc fails over to r0, heating r0's cache with
                # r1-owned keys — the donor material for the warm-up.
                for query in queries:
                    await router.detect(query)
                revived = ReplicaServer(DetectionService(compiled), port=port)
                await revived.start()
                try:
                    await router.check_health()
                    assert victim.state == "up"
                    warmed = revived.backend.stats()
                    # Warmed keys answer from cache on the first real hit.
                    r1_query = queries[4]
                    before_hits = warmed["cache"]["hits"]
                    await router.detect(r1_query)
                    after = revived.backend.stats()
                    counters = router.metrics.stats()["counters"]
                    return warmed, before_hits, after, counters
                finally:
                    await revived.stop()

        warmed, before_hits, after, counters = asyncio.run(main())
        assert counters["warmed_keys"] >= 4  # all four r1-owned keys
        assert warmed["requests"] >= 4  # replayed before taking traffic
        assert after["cache"]["hits"] == before_hits + 1
        assert after["detected"] == warmed["detected"]  # hit, not re-detect

    def test_warmup_disabled_joins_cold(self, compiled):
        async def main():
            config = RouterConfig(health_interval_s=30.0, warmup_keys=0)
            async with _fleet(compiled, 2, config) as (router, servers):
                for query in QUERIES:
                    await router.detect(query)
                victim = router.replicas[1]
                port = victim.port
                await servers[1].stop()
                await router.check_health()
                for query in QUERIES:
                    await router.detect(query)
                revived = ReplicaServer(DetectionService(compiled), port=port)
                await revived.start()
                try:
                    await router.check_health()
                    assert victim.state == "up"
                    return (
                        revived.backend.stats(),
                        router.metrics.stats()["counters"],
                    )
                finally:
                    await revived.stop()

        stats, counters = asyncio.run(main())
        assert stats["requests"] == 0  # nothing replayed
        assert counters["warmed_keys"] == 0


class TestRestartBackoff:
    def test_repeated_failures_back_off_deterministically(
        self, compiled, monkeypatch
    ):
        """First recovery retry is immediate; consecutive failures space
        out exponentially with seeded jitter, so a dead replica is not
        hammered every probe."""
        monkeypatch.setattr(router_module, "RESTART_BACKOFF_BASE_S", 0.5)
        monkeypatch.setattr(router_module, "RESTART_BACKOFF_MAX_S", 4.0)
        monkeypatch.setattr(router_module, "RESTART_JITTER", 0.0)

        async def main():
            clock = _FakeClock()
            async with _fleet(compiled, 2) as (router, servers):
                router._clock = clock
                victim = router.replicas[0]
                await servers[0].stop()
                await router.check_health()  # down + immediate retry fails
                assert victim.state == "down"
                assert victim.backoff_attempts >= 1
                first_gate = victim.next_restart_at
                await router.check_health()  # retry runs (gate was 0 or now)
                second_gate = victim.next_restart_at
                # The gate moved into the future: the next probe skips.
                assert second_gate > clock.now
                attempts_before = victim.backoff_attempts
                await router.check_health()
                assert victim.backoff_attempts == attempts_before  # gated
                # Advance past the gate: the retry runs (and fails) again.
                clock.now = second_gate + 0.01
                await router.check_health()
                assert victim.backoff_attempts == attempts_before + 1
                return first_gate, second_gate

        first_gate, second_gate = asyncio.run(main())
        assert first_gate == 0.0  # first failure schedules no delay
        assert second_gate == 0.5  # second failure: base backoff

    def test_successful_reconnect_resets_backoff(self, compiled):
        async def main():
            config = RouterConfig(health_interval_s=30.0, warmup_keys=0)
            async with _fleet(compiled, 2, config) as (router, servers):
                victim = router.replicas[0]
                port = victim.port
                await servers[0].stop()
                await router.check_health()
                assert victim.backoff_attempts >= 1
                revived = ReplicaServer(DetectionService(compiled), port=port)
                await revived.start()
                try:
                    await router.check_health()
                    assert victim.state == "up"
                    return victim.backoff_attempts, victim.next_restart_at
                finally:
                    await revived.stop()

        attempts, gate = asyncio.run(main())
        assert attempts == 0
        assert gate == 0.0


async def _http(port: int, method: str, path: str, body: str | None = None):
    """Minimal HTTP exchange; returns (status, parsed JSON body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = (body or "").encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nConnection: close\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    )
    writer.write(head.encode("ascii") + payload)
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(-1), timeout=10)
    writer.close()
    await writer.wait_closed()
    header, _, content = raw.partition(b"\r\n\r\n")
    status = int(header.split()[1])
    return status, json.loads(content)
