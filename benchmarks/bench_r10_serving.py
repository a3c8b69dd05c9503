"""R10 — Online serving: the cached front end against the one-shot
``CompiledDetector.detect`` loop.

R7 made a single detect call fast; this guards the *serving* layer built
on top of it: :class:`~repro.serving.DetectionService`, a
normalized-query result cache in front of one inline ``detect`` per
miss.

The workload is a Zipfian query mix over the 2,000-query held-out eval
set — the skew a production front end actually sees, where a small head
of hot queries dominates — driven by closed-loop async clients at
several concurrency levels. Each level reports q/s, p50/p95/p99 request
latency and cache hit rate, and every response is checked bit-identical
to one-shot ``detect``.

Two honesty rules, same as R7/R9:

* the warm cache-hit path must be >= 10x cheaper per query than a cold
  detect (that is the point of the result cache), asserted here;
* any concurrency level slower than the plain single-shot loop is
  flagged ``"regression": true`` in the JSON and called out with a
  WARNING next to the host's CPU count — concurrent clients share one
  event loop, so they add task switches, not cores.

Writes ``benchmarks/results/BENCH_r10.json`` and ``r10_serving.txt``.
"""

import asyncio
import json
from time import perf_counter

import numpy as np
import pytest

from benchmarks._hw import hardware_info
from benchmarks.conftest import RESULTS_DIR, publish
from repro.eval import format_table
from repro.serving import DetectionService, ServingConfig
from repro.utils.timer import Timer

ZIPF_SEED = 17
ZIPF_S = 1.1
NUM_REQUESTS = 4096
CONCURRENCY_LEVELS = (1, 8, 32, 128)
HOT_REPEATS = 5000
MIN_CACHE_HIT_SPEEDUP = 10.0

SERVING_CONFIG = ServingConfig(cache_size=50_000)


def _zipf_workload(distinct: list[str]) -> list[str]:
    """Rank-frequency Zipf sample: request i hits rank-r query with
    probability proportional to 1/r^s."""
    rng = np.random.default_rng(ZIPF_SEED)
    weights = 1.0 / np.arange(1, len(distinct) + 1) ** ZIPF_S
    indices = rng.choice(len(distinct), size=NUM_REQUESTS, p=weights / weights.sum())
    return [distinct[index] for index in indices]


async def _drive(service, workload, clients):
    """Closed-loop clients: each owns a round-robin slice of the workload
    and issues its requests sequentially. Returns (results, latencies_us,
    wall_seconds)."""
    results: list = [None] * len(workload)
    latencies_us: list[float] = []

    async def client(offset: int) -> None:
        for index in range(offset, len(workload), clients):
            start = perf_counter()
            results[index] = await service.detect(workload[index])
            latencies_us.append((perf_counter() - start) * 1e6)

    start = perf_counter()
    await asyncio.gather(*(client(offset) for offset in range(clients)))
    wall = perf_counter() - start
    return results, latencies_us, wall


async def _serve_level(detector, workload, clients):
    async with DetectionService(detector, SERVING_CONFIG) as service:
        results, latencies_us, wall = await _drive(service, workload, clients)
        stats = service.stats()
    percentiles = np.percentile(latencies_us, [50, 95, 99])
    return results, {
        "clients": clients,
        "requests": len(workload),
        "seconds": wall,
        "qps": len(workload) / wall,
        "latency_us": {
            "p50": percentiles[0],
            "p95": percentiles[1],
            "p99": percentiles[2],
            "mean": float(np.mean(latencies_us)),
            "max": float(np.max(latencies_us)),
        },
        "cache_hit_rate": stats["cache"]["hit_rate"],
        "detected": stats["detected"],
    }


async def _time_warm_hits(detector, query) -> float:
    """Per-request seconds for the warm cache-hit path, measured inside
    one coroutine so only the serving layer itself is on the clock."""
    async with DetectionService(detector, SERVING_CONFIG) as service:
        await service.detect(query)  # prime the cache
        start = perf_counter()
        for _ in range(HOT_REPEATS):
            await service.detect(query)
        elapsed = perf_counter() - start
        assert service.stats()["cache"]["hits"] == HOT_REPEATS
    return elapsed / HOT_REPEATS


@pytest.fixture(scope="module")
def serving_comparison(model, eval_queries):
    detector = model.compile()
    try:
        distinct = list(dict.fromkeys(eval_queries))
        workload = _zipf_workload(distinct)

        # Cold cost: first-ever detect per distinct query on a fresh
        # compiled runtime (internal memo caches empty).
        with Timer() as cold_timer:
            expected = {query: detector.detect(query) for query in distinct}
        cold_us = cold_timer.elapsed / len(distinct) * 1e6

        # Baseline the serving layer has to justify itself against: the
        # plain sequential one-shot loop over the same Zipf workload,
        # internal runtime caches already warm (its best case).
        with Timer() as baseline_timer:
            for query in workload:
                detector.detect(query)
        baseline_qps = len(workload) / baseline_timer.elapsed

        warm_hit_seconds = asyncio.run(_time_warm_hits(detector, distinct[0]))
        warm_hit_us = warm_hit_seconds * 1e6

        levels = {}
        mismatches = 0
        regression = False
        for clients in CONCURRENCY_LEVELS:
            results, entry = asyncio.run(_serve_level(detector, workload, clients))
            mismatches += sum(
                result != expected[query]
                for query, result in zip(workload, results)
            )
            entry["speedup_vs_single_shot"] = entry["qps"] / baseline_qps
            entry["regression"] = entry["qps"] < baseline_qps
            regression = regression or entry["regression"]
            levels[str(clients)] = entry

        return {
            "hardware": hardware_info(),
            "workload": {
                "distinct_queries": len(distinct),
                "requests": NUM_REQUESTS,
                "zipf_s": ZIPF_S,
                "seed": ZIPF_SEED,
            },
            "single_shot": {
                "seconds": baseline_timer.elapsed,
                "qps": baseline_qps,
            },
            "cold_detect_us": cold_us,
            "warm_cache_hit": {
                "per_query_us": warm_hit_us,
                "speedup_vs_cold": cold_us / warm_hit_us,
                "min_required": MIN_CACHE_HIT_SPEEDUP,
            },
            "concurrency": levels,
            "parity": {
                "eval_queries": len(distinct),
                "served_requests": NUM_REQUESTS * len(CONCURRENCY_LEVELS),
                "mismatches": mismatches,
                "bit_identical": mismatches == 0,
            },
            "regression": regression,
        }
    finally:
        detector.close()


def test_r10_serving_throughput(serving_comparison):
    rows = []
    for clients, entry in serving_comparison["concurrency"].items():
        latency = entry["latency_us"]
        rows.append(
            [
                clients,
                f"{entry['qps']:.0f}",
                f"{latency['p50']:.0f}",
                f"{latency['p95']:.0f}",
                f"{latency['p99']:.0f}",
                f"{entry['cache_hit_rate']:.2f}",
                entry["detected"],
                f"{entry['speedup_vs_single_shot']:.2f}x",
                "yes" if entry["regression"] else "",
            ]
        )
    publish(
        "r10_serving",
        format_table(
            [
                "clients",
                "q/s",
                "p50 us",
                "p95 us",
                "p99 us",
                "hit rate",
                "detected",
                "vs 1-shot",
                "regression",
            ],
            rows,
            title=(
                "R10: serving layer, Zipfian workload "
                f"({NUM_REQUESTS} requests, s={ZIPF_S})"
            ),
        ),
    )
    if serving_comparison["regression"]:
        hardware = serving_comparison["hardware"]
        print(
            "\nWARNING: at least one concurrency level is slower than the "
            "plain single-shot detect loop on this host "
            f"({hardware['usable_cpus']} usable CPU(s)); concurrent clients "
            "share one event loop, so they add task switches, not cores. "
            "The cache-hit path still wins (see 'warm_cache_hit'); "
            "per-level flags are in BENCH_r10.json."
        )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_r10.json").write_text(
        json.dumps(serving_comparison, indent=2) + "\n"
    )

    parity = serving_comparison["parity"]
    assert parity["bit_identical"], (
        f"{parity['mismatches']} served responses differed from one-shot detect"
    )
    speedup = serving_comparison["warm_cache_hit"]["speedup_vs_cold"]
    assert speedup >= MIN_CACHE_HIT_SPEEDUP, (
        "warm cache hits must be >= "
        f"{MIN_CACHE_HIT_SPEEDUP}x cheaper than cold detect, got {speedup:.1f}x"
    )


@pytest.mark.parametrize("path", ["one_shot", "served_cache_hit"])
def test_r10_hot_query_benchmark(benchmark, model, path):
    """pytest-benchmark timing of one hot query: raw compiled detect vs a
    served cache hit (includes one run_until_complete round trip)."""
    detector = model.compile()
    query = "cheap hotels in rome"
    try:
        if path == "one_shot":
            detector.detect(query)  # warm internal caches
            benchmark(lambda: detector.detect(query))
        else:
            loop = asyncio.new_event_loop()
            service = DetectionService(detector, SERVING_CONFIG)
            loop.run_until_complete(service.detect(query))
            try:
                benchmark(lambda: loop.run_until_complete(service.detect(query)))
            finally:
                loop.run_until_complete(service.close())
                loop.close()
    finally:
        detector.close()
