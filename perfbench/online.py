"""``route-unique`` and ``serve-zipf``: open-loop HTTP traffic.

``route-unique`` sends distinct queries at 300/s through ``repro route
--replicas 1`` (http → router → replica frame → batcher → scalar detect
and classify, with no cache hits). ``serve-zipf`` sends Zipf(s=1.1)
draws over held-out queries at 300/s to single-process ``repro serve``
(mostly cache hits and single-flight joins; no router, no replica).

Each run starts its servers fresh: set-up is timed over several
spawns, the last server takes a short warm-up phase, then the measured
phase. ``/stats`` is read before and after the measured phase, and the
differences give the per-layer numbers. Every response body must equal
``detection_payload(detect(q))`` from the same snapshot, byte for byte.
"""

from __future__ import annotations

import asyncio
import os
import random
from pathlib import Path
from time import perf_counter

from perfbench.common import (
    SCHEDULE_BASE,
    BenchError,
    Result,
    arrival_offsets,
    counter_delta,
    expected_body,
    heldout_queries,
    host_calibration_ms,
    host_slowdown,
    median,
    percentile,
    quiet_harness,
    scaled_seconds,
    shipped_model,
    stage_delta,
    taxonomy,
    write_shipped_snapshot,
    zipf_draws,
)
from perfbench.loadgen import Outcome, open_loop
from perfbench.servers import Server
from perfbench.trace import Tracer

#: Concurrent connections: one load-generating process, at most nproc.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
WARMUP_S = 1.0
SETUPS = 9
ZIPF_S = 1.1
ZIPF_DISTINCT = 2000
ZIPF_INTENTS = 1500

#: workload → (offered q/s, CLI verb, flags beyond --snapshot/--port)
WORKLOADS = {
    "route-unique": (300.0, "route", ["--replicas", "1"]),
    "serve-zipf": (300.0, "serve", []),
}


def run(name: str, seed: int, seconds: int, trace: bool, work: Path) -> Result:
    return asyncio.run(_run(name, seed, seconds, trace, work))


async def _run(name: str, seed: int, seconds: int, trace: bool, work: Path) -> Result:
    from repro.runtime.compiled import CompiledDetector

    rate, verb, flags = WORKLOADS[name]
    tax = taxonomy()
    snapshot = work / "shipped.hdms"
    write_shipped_snapshot(shipped_model(tax), snapshot)
    rng = random.Random(SCHEDULE_BASE + seed)
    warm_offsets = arrival_offsets(rate, WARMUP_S, rng)
    offsets = arrival_offsets(rate, seconds, rng)
    if name == "route-unique":
        needed = len(warm_offsets) + len(offsets)
        pool = heldout_queries(seed, int(needed * 1.2) + 1000, tax)
        if len(pool) < needed:
            raise BenchError(f"only {len(pool)} distinct queries for {needed} requests")
        warm_queries, queries = pool[: len(warm_offsets)], pool[len(warm_offsets) : needed]
    else:
        distinct = heldout_queries(seed, ZIPF_INTENTS, tax)[:ZIPF_DISTINCT]
        warm_queries = zipf_draws(distinct, len(warm_offsets), ZIPF_S, rng)
        queries = zipf_draws(distinct, len(offsets), ZIPF_S, rng)

    command = [verb, "--snapshot", str(snapshot), "--port", "0", *flags]
    tracer = Tracer() if trace else None
    quiet_harness()
    calibration_ms = host_calibration_ms()
    setups = []
    for attempt in range(SETUPS):
        server = Server(command, work / f"server-{attempt}.log")
        before = host_slowdown()
        seconds_to_ready = await server.start()
        setups.append(scaled_seconds(seconds_to_ready, before, host_slowdown()))
        if attempt < SETUPS - 1:
            await server.stop()
    try:
        warm = await open_loop(server.host, server.port, warm_offsets, warm_queries, CONNECTIONS)
        before = await server.stats()
        outcome = await open_loop(
            server.host,
            server.port,
            offsets,
            queries,
            CONNECTIONS,
            tracer,
            request_base=len(warm_offsets),
        )
        after = await server.stats()
        rss_mb = server.peak_rss_mb()
        calibration_ms = (calibration_ms + host_calibration_ms()) / 2
    finally:
        await server.stop()

    load_started = perf_counter()
    detector = CompiledDetector.load_snapshot(snapshot)
    load_s = perf_counter() - load_started
    try:
        problems = check_bodies(detector, warm_queries + queries, [warm, outcome])
    finally:
        detector.close()

    latencies = outcome.latencies_us()
    p99 = percentile(latencies, 99)
    failed = warm.failed + outcome.failed
    attempted = len(warm_offsets) + len(offsets)
    window = max(outcome.finished) - min(outcome.due)
    result = Result(
        attempted=attempted,
        failed=failed,
        problems=problems,
        end_to_end={
            "setup_s": median(setups),
            "throughput_qps": len(latencies) / window,
            "latency_p50_us": percentile(latencies, 50),
            "rss_mb": rss_mb,
        },
        info={
            "offered rate (q/s)": rate,
            "connections": CONNECTIONS,
            "latency samples": len(latencies),
            "samples beyond p99": sum(1 for value in latencies if value > p99),
            "set-up samples (s)": [round(s, 4) for s in setups],
            "errors": outcome.errors[:5] + warm.errors[:5],
        },
    )
    layers = result.per_layer
    layers["latency_p99_us"] = p99
    layers["host.calibration_ms"] = calibration_ms
    layers.update(serving_layers(before, after, outcome, routed=name == "route-unique"))
    layers["runtime.snapshot.load_s"] = load_s
    layers["runtime.snapshot.bytes"] = snapshot.stat().st_size
    if tracer is not None:
        layers["tracing.overhead_share"] = traced_overhead(outcome)
        tracer.write(work.parent / "spans" / f"{name}.tsv")
    return result


def check_bodies(detector, queries: list[str], outcomes: list[Outcome]) -> list[str]:
    """Every 200 body must be byte-identical to the local detection."""
    bodies = [body for outcome in outcomes for body in outcome.bodies]
    statuses = [status for outcome in outcomes for status in outcome.status]
    expected: dict[str, bytes] = {}
    wrong = 0
    for query, status, body in zip(queries, statuses, bodies):
        if status != 200:
            continue
        want = expected.get(query)
        if want is None:
            want = expected[query] = expected_body(detector, query)
        wrong += body != want
    return [f"{wrong} response bodies differ from detect() on the snapshot"] if wrong else []


def serving_layers(before: dict, after: dict, outcome: Outcome, routed: bool) -> dict[str, float]:
    """Per-layer numbers from the ``/stats`` difference over a phase."""
    service_before = before["fleet"] if routed else before
    service_after = after["fleet"] if routed else after

    def stage(stats_before: dict, stats_after: dict, name: str) -> dict:
        return stage_delta(
            (stats_before.get("stages") or {}).get(name, {}),
            (stats_after.get("stages") or {}).get(name, {}),
        )

    hits = service_after["cache"]["hits"] - service_before["cache"]["hits"]
    misses = service_after["cache"]["misses"] - service_before["cache"]["misses"]
    detected = service_after["detected"] - service_before["detected"]
    batches = service_after["batches"] - service_before["batches"]
    queue_wait = stage(service_before, service_after, "queue_wait")
    service_request = stage(service_before, service_after, "request")
    layers = {
        "serving.service.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "serving.service.coalesced": service_after["coalesced"] - service_before["coalesced"],
        "serving.service.rejected": service_after["rejected"] - service_before["rejected"],
        "serving.service.detect.mean_us": stage(service_before, service_after, "detect")["mean_us"],
        "serving.batcher.queue_wait.mean_us": queue_wait["mean_us"],
        "serving.batcher.queue_wait.p99_us": queue_wait["p99_us"],
        "serving.batcher.batch_size.mean": detected / batches if batches else 0.0,
    }
    front_request = service_request
    if routed:
        router_before, router_after = before["router"], after["router"]
        front_request = stage(router_before, router_after, "request")
        forward = stage(router_before, router_after, "forward")
        counters_before = router_before.get("counters", {})
        counters_after = router_after.get("counters", {})
        layers.update(
            {
                "serving.router.self_mean_us": front_request["mean_us"] - forward["mean_us"],
                "serving.router.forward.p99_us": forward["p99_us"],
                "serving.router.shed": counter_delta(counters_before, counters_after, "shed"),
                "serving.router.unrouted": counter_delta(counters_before, counters_after, "unrouted"),
                "serving.router.reroutes": counter_delta(counters_before, counters_after, "reroutes"),
                "serving.replica.self_mean_us": forward["mean_us"] - service_request["mean_us"],
            }
        )
    exchanges = [
        (end - start) * 1e6
        for start, end, status in zip(outcome.started, outcome.finished, outcome.status)
        if status == 200
    ]
    layers["serving.http.self_mean_us"] = (
        sum(exchanges) / len(exchanges) - front_request["mean_us"] if exchanges else 0.0
    )
    late_us = [late * 1e6 for late in outcome.late]
    layers["loadgen.late_p50_us"] = percentile(late_us, 50)
    layers["loadgen.late_p99_us"] = percentile(late_us, 99)
    layers["loadgen.connections_per_request"] = outcome.connections / max(len(outcome.due), 1)
    layers["latency.samples"] = len(outcome.latencies_us())
    return layers


def traced_overhead(outcome: Outcome) -> float:
    """Median latency of traced (odd) requests over untraced (even) ones,
    minus one."""
    traced, plain = [], []
    for index, (due, end, status) in enumerate(zip(outcome.due, outcome.finished, outcome.status)):
        if status == 200:
            (traced if index % 2 else plain).append(end - due)
    return median(traced) / median(plain) - 1.0 if traced and plain else 0.0

