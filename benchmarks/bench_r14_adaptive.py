"""R14 — Adaptive fleet: tail hedging and cache warm-up.

R12 measured a plain fleet; this experiment measures the two policies
the router adds on top of it, and asks the two questions that justify
them:

1. **Does hedging buy back the tail?** One replica is an injected
   intermittent straggler: every ``STALL_EVERY``-th request it owns
   sleeps ``STALL_S`` (the shape hedging is designed for — a replica
   that is usually fine and occasionally awful). The same workload runs
   with hedging off and on; every response in both runs must be
   bit-identical to one-shot ``CompiledDetector.detect``, and the hedged
   run must cut client-side p99 by ``BAR_HEDGE_CUT``x while firing
   hedges on less than ``BAR_HEDGE_LOAD`` of requests (the extra
   backend load is the hedge counter, not a vibe).
2. **Does warm-up pay?** A replica rejoining a hot fleet replays its
   sibling's hottest keys before taking traffic; its first-window cache
   hit rate on its owned hot keys must beat a cold join's.

Writes ``benchmarks/results/BENCH_r14.json`` and the human-readable
``r14_adaptive_fleet.txt``.
"""

from __future__ import annotations

import asyncio
import json
from time import perf_counter

import pytest

from benchmarks._hw import hardware_info
from benchmarks.conftest import RESULTS_DIR, publish
from repro.core.conceptualizer import Conceptualizer
from repro.eval import format_table
from repro.runtime import CompiledDetector
from repro.serving import DetectionService
from repro.serving.http import detection_payload
from repro.serving.replica import ReplicaServer
from repro.serving.router import ConsistentHashRing, Router, RouterConfig
from repro.text.normalizer import normalize_fast

# -- part 1: hedging ---------------------------------------------------
HEDGE_QUERIES_PER_REPLICA = 256
STALL_EVERY = 16  # every 16th straggler-owned request stalls (~3% of all)
STALL_S = 0.045
HEDGE_P99_US = 20_000.0  # arm when a replica's window p99 clears 20ms
HEDGE_MIN_DELAY_US = 5_000.0
HEDGE_RATE = 0.05
BAR_HEDGE_CUT = 2.0  # hedging must cut client p99 by at least this
BAR_HEDGE_LOAD = 0.05  # ...while hedging less than 5% of requests

# -- part 2: warm-up ---------------------------------------------------
WARM_KEYS_PER_REPLICA = 32

#: The two-replica ring both in-process parts route over —
#: precomputing ownership here keeps workloads deterministic.
RING = ConsistentHashRing(["r0", "r1"])


def _owned_query(owner: str, template: str, marker: str = "") -> str:
    """A query string whose normalized form the ring assigns to ``owner``."""
    for n in range(10_000):
        query = f"{marker}{template.format(n)}".strip()
        if RING.node_for(normalize_fast(query)) == owner:
            return query
    raise AssertionError(f"no query found for owner {owner}")


def _quantile_s(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[int(q * (len(ordered) - 1))]


class _StragglerService:
    """Delegates to a real DetectionService, stalling queries that carry
    a marker — an injected intermittent straggler."""

    def __init__(self, compiled, marker: str = "sleepy") -> None:
        self._inner = DetectionService(compiled)
        self._marker = marker

    @property
    def closed(self):
        return self._inner.closed

    @property
    def model_generation(self):
        return self._inner.model_generation

    async def detect(self, text):
        if self._marker in text:
            await asyncio.sleep(STALL_S)
        return await self._inner.detect(text)

    def stats(self):
        return self._inner.stats()

    def hot_keys(self, n):
        return self._inner.hot_keys(n)

    async def close(self):
        await self._inner.close()


@pytest.fixture(scope="module")
def compiled(model, taxonomy):
    detector = CompiledDetector(
        model.patterns, Conceptualizer(taxonomy), instance_pairs=model.pairs
    )
    yield detector
    detector.close()


def _hedge_workload() -> list[str]:
    """Interleaved r0/r1-owned queries; every ``STALL_EVERY``-th
    r0-owned query carries the stall marker."""
    queries = []
    for index in range(HEDGE_QUERIES_PER_REPLICA):
        if index % STALL_EVERY == STALL_EVERY - 1:
            r0_query = _owned_query(
                "r0", f"slow {{}} batch {index}", marker="sleepy "
            )
        else:
            r0_query = _owned_query("r0", f"fast {{}} item {index}")
        queries.append(r0_query)
        queries.append(_owned_query("r1", f"steady {{}} case {index}"))
    return queries


async def _run_hedge_pass(compiled, queries, hedge: bool) -> dict:
    """Drive the workload through a straggler+healthy fleet; return
    client-side latencies, payloads, and the router's hedge counters."""
    config = RouterConfig(
        health_interval_s=30.0,
        hedge_p99_us=HEDGE_P99_US if hedge else 0.0,
        hedge_min_delay_us=HEDGE_MIN_DELAY_US,
        hedge_rate=HEDGE_RATE,
        warmup_keys=0,
    )
    straggler = ReplicaServer(_StragglerService(compiled), port=0)
    healthy = ReplicaServer(DetectionService(compiled), port=0)
    await straggler.start()
    await healthy.start()
    router = Router(config)
    router.attach("127.0.0.1", straggler.port)  # r0: the straggler
    router.attach("127.0.0.1", healthy.port)  # r1: healthy backup
    await router.start()
    try:
        latencies, payloads = [], {}
        for query in queries:
            start = perf_counter()
            payloads[query] = await router.detect(query)
            latencies.append(perf_counter() - start)
        counters = router.metrics.stats()["counters"]
        return {"latencies": latencies, "payloads": payloads, "counters": counters}
    finally:
        await router.close()
        await straggler.stop()
        await healthy.stop()


@pytest.fixture(scope="module")
def hedging_result(compiled):
    queries = _hedge_workload()
    expected = {query: detection_payload(compiled.detect(query)) for query in queries}

    async def bench():
        plain = await _run_hedge_pass(compiled, queries, hedge=False)
        hedged = await _run_hedge_pass(compiled, queries, hedge=True)
        return plain, hedged

    plain, hedged = asyncio.run(bench())
    for name, result in (("unhedged", plain), ("hedged", hedged)):
        mismatches = [q for q in queries if result["payloads"][q] != expected[q]]
        assert mismatches == [], f"{name} responses differ: {mismatches[:3]}"
    p99_plain = _quantile_s(plain["latencies"], 0.99)
    p99_hedged = _quantile_s(hedged["latencies"], 0.99)
    fired = hedged["counters"]["hedges_fired"]
    return {
        "requests": len(queries),
        "stall_every": STALL_EVERY,
        "stall_ms": STALL_S * 1e3,
        "p50_ms": {
            "unhedged": _quantile_s(plain["latencies"], 0.50) * 1e3,
            "hedged": _quantile_s(hedged["latencies"], 0.50) * 1e3,
        },
        "p99_ms": {"unhedged": p99_plain * 1e3, "hedged": p99_hedged * 1e3},
        "p99_cut": p99_plain / p99_hedged,
        "hedges_fired": fired,
        "hedges_won": hedged["counters"]["hedges_won"],
        "hedges_suppressed": hedged["counters"]["hedges_suppressed"],
        "hedge_load": fired / len(queries),
        "bit_identical": True,  # asserted above
    }


async def _join_hit_rate(compiled, warmup_keys: int) -> dict:
    """Heat a 2-replica fleet, kill r1, spill its arc onto r0, revive
    r1, and measure r1's first-window cache hit rate over its owned hot
    keys — with and without warm-up this isolates what replay buys."""
    hot = [
        _owned_query(owner, f"hot {{}} topic {index}")
        for owner in ("r0", "r1")
        for index in range(WARM_KEYS_PER_REPLICA)
    ]
    r1_hot = [q for q in hot if RING.node_for(normalize_fast(q)) == "r1"]
    config = RouterConfig(health_interval_s=30.0, warmup_keys=warmup_keys)
    servers = [
        ReplicaServer(DetectionService(compiled), port=0) for _ in range(2)
    ]
    for server in servers:
        await server.start()
    router = Router(config)
    for server in servers:
        router.attach("127.0.0.1", server.port)
    await router.start()
    revived = None
    try:
        for query in hot:
            await router.detect(query)
        victim = router.replicas[1]
        port = victim.port
        await servers[1].stop()
        await router.check_health()
        assert victim.state == "down"
        # r1's arc fails over to r0, heating r0's cache with r1's keys.
        for query in hot:
            await router.detect(query)
        revived = ReplicaServer(DetectionService(compiled), port=port)
        await revived.start()
        await router.check_health()  # reconnect (+ warm-up when enabled)
        assert victim.state == "up"
        before = revived.backend.stats()
        for query in r1_hot:
            await router.detect(query)
        after = revived.backend.stats()
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        return {
            "owned_hot_keys": len(r1_hot),
            "warmed_requests": before["requests"],
            "first_window_hits": hits,
            "hit_rate": hits / len(r1_hot),
        }
    finally:
        await router.close()
        await servers[0].stop()
        if revived is not None:
            await revived.stop()


@pytest.fixture(scope="module")
def warmup_result(compiled):
    async def bench():
        warm = await _join_hit_rate(compiled, warmup_keys=128)
        cold = await _join_hit_rate(compiled, warmup_keys=0)
        return warm, cold

    warm, cold = asyncio.run(bench())
    return {"warm": warm, "cold": cold}


def test_r14_adaptive_fleet(hedging_result, warmup_result):
    hardware = hardware_info()
    rows = [
        [
            "hedging p99 ms",
            f"{hedging_result['p99_ms']['unhedged']:.1f}",
            f"{hedging_result['p99_ms']['hedged']:.1f}",
            f"{hedging_result['p99_cut']:.1f}x cut, "
            f"{hedging_result['hedge_load']:.1%} hedged",
        ],
        [
            "join hit rate",
            f"{warmup_result['cold']['hit_rate']:.0%} cold",
            f"{warmup_result['warm']['hit_rate']:.0%} warm",
            f"{warmup_result['warm']['warmed_requests']} keys replayed",
        ],
    ]
    publish(
        "r14_adaptive_fleet",
        format_table(
            ["claim", "before", "after", "notes"],
            rows,
            title="R14: adaptive fleet — hedging, warm-up "
            "(bit-identical responses throughout)",
        ),
    )
    regression = (
        hedging_result["p99_cut"] < BAR_HEDGE_CUT
        or hedging_result["hedge_load"] >= BAR_HEDGE_LOAD
        or warmup_result["warm"]["hit_rate"] <= warmup_result["cold"]["hit_rate"]
    )
    report = {
        "hardware": hardware,
        "hedging": hedging_result,
        "warmup": warmup_result,
        "bit_identical": True,
        "regression": regression,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_r14.json").write_text(json.dumps(report, indent=2) + "\n")
    # Neither claim needs a second CPU, so both hold (or fail honestly)
    # on any host.
    assert hedging_result["p99_cut"] >= BAR_HEDGE_CUT, (
        f"hedging must cut p99 by {BAR_HEDGE_CUT}x, got "
        f"{hedging_result['p99_cut']:.2f}x"
    )
    assert hedging_result["hedge_load"] < BAR_HEDGE_LOAD
    assert hedging_result["hedges_won"] >= 1
    assert warmup_result["warm"]["hit_rate"] > warmup_result["cold"]["hit_rate"]
    assert warmup_result["warm"]["hit_rate"] >= 0.9
