"""``refresh``: live model refresh beside read traffic.

Set-up trains a base model on 80% of a 16k-intent log with ``repro
train --state … --emit-snapshot`` and starts ``repro serve`` on that
snapshot. During the measured phase a ``repro serve`` process takes
distinct reads at 100/s while the benchmark repeatedly writes the next 1%
slice of the log, folds it with ``repro train --append … --base …
--emit-snapshot … --parent-snapshot …`` and ``POST /reload``s the new
generation. This is the only workload that runs ``training/``, lineage
snapshot writes and ``DetectionService.swap_snapshot``.

The reads are distinct, so every one is answered by the live
generation's detector. With Zipf reads the result cache, cleared at
every swap, refilled to a hit rate of about one half, and the median
read fell sometimes on the hit side and sometimes on the miss side: it
varied by 14–21% across seeds.

Checks: after each reload, ``/stats`` must report the emitted
generation, and every response sent after a reload returned and
finished before the next reload began must match that generation's own
snapshot byte for byte.
"""

from __future__ import annotations

import asyncio
import os
import random
import re
import sys
from pathlib import Path
from time import perf_counter

from perfbench.common import (
    REFRESH_LOG_BASE,
    ROOT,
    SCHEDULE_BASE,
    BenchError,
    Result,
    arrival_offsets,
    check_shipped,
    child_env,
    expected_body,
    heldout_queries,
    host_calibration_ms,
    host_slowdown,
    median,
    percentile,
    quiet_harness,
    scaled_seconds,
    taxonomy,
)
from perfbench.loadgen import open_loop, post_json
from perfbench.online import (
    CONNECTIONS,
    SETUPS,
    WARMUP_S,
    serving_layers,
    traced_overhead,
)
from perfbench.servers import Server
from perfbench.trace import Tracer

LOG_INTENTS = 16_000
BASE_SHARE = 0.8
DELTA_SHARE = 0.01
READ_RATE = 100.0
TRAIN_TIMEOUT_S = 90.0
RELOAD_TIMEOUT_S = 60.0
#: Folds run as a background job beside the server: at lower CPU
#: priority and held to one CPU, so reads wait on the reload swap rather
#: than on the scheduler's share-out between trainer and server.
FOLD_NICENESS = 10
FOLDED = re.compile(r"folded .*: generation (\d+), (\d+) dirty of (\d+) records, (.*)")


async def run_cli(args: list[str], background: bool = False) -> tuple[int, str, float]:
    """Run ``repro <args>``; returns (exit code, stdout, wall seconds)."""
    began = perf_counter()
    process = await asyncio.create_subprocess_exec(
        sys.executable,
        "-m",
        "repro.cli",
        *args,
        cwd=ROOT,
        env=child_env(),
        stdout=asyncio.subprocess.PIPE,
        stderr=asyncio.subprocess.PIPE,
    )
    if background:
        try:
            os.setpriority(os.PRIO_PROCESS, process.pid, FOLD_NICENESS)
            cpus = sorted(os.sched_getaffinity(0))
            if len(cpus) > 1:
                os.sched_setaffinity(process.pid, cpus[-1:])
        except ProcessLookupError:
            pass  # already exited; communicate() reports how
    try:
        stdout, stderr = await asyncio.wait_for(process.communicate(), TRAIN_TIMEOUT_S)
    except asyncio.TimeoutError:
        process.kill()
        await process.wait()
        return -1, "", perf_counter() - began
    wall = perf_counter() - began
    if process.returncode != 0:
        sys.stderr.write(stderr.decode(errors="replace")[-1500:])
    return process.returncode or 0, stdout.decode(), wall


def _slice_log(records):
    from repro.querylog.models import QueryLog

    log = QueryLog()
    for record in records:
        log.add_record(record.query, record.frequency, record.clicks)
    return log


def run(seed: int, seconds: int, trace: bool, work: Path) -> Result:
    return asyncio.run(_run(seed, seconds, trace, work))


async def _run(seed: int, seconds: int, trace: bool, work: Path) -> Result:
    from repro import LogConfig, generate_log
    from repro.querylog.storage import save_query_log
    from repro.runtime.compiled import CompiledDetector
    from repro.taxonomy.serialization import save_taxonomy_tsv

    tax = taxonomy()
    records = list(
        generate_log(tax, LogConfig(seed=REFRESH_LOG_BASE + seed, num_intents=LOG_INTENTS)).records()
    )
    cut = int(len(records) * BASE_SHARE)
    step = max(1, int(len(records) * DELTA_SHARE))
    taxonomy_path, base_path = work / "taxonomy.tsv", work / "base.jsonl"
    save_taxonomy_tsv(tax, taxonomy_path)
    save_query_log(_slice_log(records[:cut]), base_path, include_gold=False)
    state, first = work / "state.hdmt", work / "g1.hdms"

    rng = random.Random(SCHEDULE_BASE + seed)
    warm_offsets = arrival_offsets(READ_RATE, WARMUP_S, rng)
    offsets = arrival_offsets(READ_RATE, seconds, rng)
    needed = len(warm_offsets) + len(offsets)
    pool = heldout_queries(seed, needed + 1000, tax)
    if len(pool) < needed:
        raise BenchError(f"only {len(pool)} distinct queries for {needed} reads")
    warm_queries, queries = pool[: len(warm_offsets)], pool[len(warm_offsets) : needed]

    slowdown = host_slowdown()
    code, _, train_s = await run_cli(
        ["train", "--log", str(base_path), "--taxonomy", str(taxonomy_path),
         "--out", str(work / "model"), "--state", str(state), "--emit-snapshot", str(first)]
    )
    if code != 0:
        raise BenchError("base training failed")
    train_s = scaled_seconds(train_s, slowdown, host_slowdown())
    check_shipped(first)
    quiet_harness()
    calibration_ms = host_calibration_ms()
    command = ["serve", "--snapshot", str(first), "--port", "0"]
    ready = []
    for attempt in range(SETUPS):
        server = Server(command, work / f"server-{attempt}.log")
        slowdown = host_slowdown()
        seconds_to_ready = await server.start()
        ready.append(scaled_seconds(seconds_to_ready, slowdown, host_slowdown()))
        if attempt < SETUPS - 1:
            await server.stop()

    cycles: list[dict] = []
    problems: list[str] = []
    step_errors: list[str] = []
    failed_steps = 0
    tracer = Tracer() if trace else None

    async def refresher(deadline: float) -> None:
        nonlocal failed_steps
        parent = first
        while perf_counter() < deadline and cut + (len(cycles) + 1) * step <= len(records):
            index = len(cycles)
            delta_path = work / f"delta-{index}.jsonl"
            save_query_log(
                _slice_log(records[cut + index * step : cut + (index + 1) * step]),
                delta_path,
                include_gold=False,
            )
            written = perf_counter()
            target = work / f"g{index + 2}.hdms"
            code, stdout, train_wall = await run_cli(
                ["train", "--append", str(delta_path), "--base", str(state),
                 "--emit-snapshot", str(target), "--parent-snapshot", str(parent)],
                background=True,
            )
            folded = FOLDED.search(stdout)
            if code != 0 or folded is None:
                failed_steps += 1
                step_errors.append(f"fold {index} failed (exit {code})")
                return
            check_shipped(target)
            stages = dict(
                (name, float(value.rstrip("s")))
                for name, _, value in (item.partition("=") for item in folded.group(4).split())
            )
            reload_start = perf_counter()
            status, payload = await post_json(
                server.host, server.port, "/reload", {"snapshot": str(target)}, RELOAD_TIMEOUT_S
            )
            reload_end = perf_counter()
            if status != 200:
                failed_steps += 1
                step_errors.append(f"reload {index} answered {status}: {payload}")
                return
            stats_after_reload = await server.stats()
            generation = int(folded.group(1))
            if payload.get("model_generation") != generation or stats_after_reload.get(
                "model_generation"
            ) != generation:
                problems.append(
                    f"reload {index}: emitted generation {generation}, server reports "
                    f"{payload.get('model_generation')} / {stats_after_reload.get('model_generation')}"
                )
            cycles.append(
                {
                    "written": written,
                    "train_wall": train_wall,
                    "stages": stages,
                    "dirty": int(folded.group(2)),
                    "reload_start": reload_start,
                    "reload_end": reload_end,
                    "snapshot": target,
                }
            )
            if tracer is not None:
                root = tracer.add("refresh", written, reload_end, request=index)
                tracer.add("training.cli", written, written + train_wall, root, index)
                tracer.add("serving.http.reload", reload_start, reload_end, root, index)
            parent = target

    try:
        await open_loop(server.host, server.port, warm_offsets, warm_queries, CONNECTIONS)
        before = await server.stats()
        deadline = perf_counter() + seconds
        outcome, _ = await asyncio.gather(
            open_loop(server.host, server.port, offsets, queries, CONNECTIONS, tracer),
            refresher(deadline),
        )
        after = await server.stats()
        rss_mb = server.peak_rss_mb()
        calibration_ms = (calibration_ms + host_calibration_ms()) / 2
    finally:
        await server.stop()
    if not cycles:
        raise BenchError("no refresh completed within the run")

    # Each generation answers the requests sent after its reload returned
    # and finished before the next reload began.
    starts = [(float("-inf"), first)] + [(c["reload_end"], c["snapshot"]) for c in cycles]
    ends = [cycle["reload_start"] for cycle in cycles] + [float("inf")]
    checked = wrong = 0
    load_s = []
    for (start, snapshot), end in zip(starts, ends):
        load_started = perf_counter()
        detector = CompiledDetector.load_snapshot(snapshot)
        load_s.append(perf_counter() - load_started)
        try:
            for query, began, finished, status, body in zip(
                queries, outcome.started, outcome.finished, outcome.status, outcome.bodies
            ):
                if status == 200 and began >= start and finished <= end:
                    checked += 1
                    wrong += body != expected_body(detector, query)
        finally:
            detector.close()
    if wrong:
        problems.append(f"{wrong} of {checked} responses differ from their generation's snapshot")

    latencies = outcome.latencies_us()
    refresh_s = [cycle["reload_end"] - cycle["written"] for cycle in cycles]
    attempted = len(offsets) + 2 * (len(cycles) + failed_steps)
    failed = outcome.failed + failed_steps
    window = max(outcome.finished) - min(outcome.due)
    result = Result(
        attempted=attempted,
        failed=failed,
        problems=problems,
        end_to_end={
            "setup_s": train_s + median(ready),
            "throughput_qps": len(latencies) / window,
            "latency_p50_us": percentile(latencies, 50),
            "rss_mb": rss_mb,
        },
        info={
            "read rate (q/s)": READ_RATE,
            "connections": CONNECTIONS,
            "latency samples": len(latencies),
            "refreshes": len(cycles),
            "responses checked against their generation": checked,
            "base train (s)": round(train_s, 3),
            "refresh_p50_s": median(refresh_s),
            "errors": step_errors + outcome.errors[:5],
        },
    )
    layers = result.per_layer
    layers["latency_p99_us"] = percentile(latencies, 99)
    layers["host.calibration_ms"] = calibration_ms
    layers.update(serving_layers(before, after, outcome, routed=False))
    layers["refresh_p50_s"] = median(refresh_s)
    layers["serving.http.reload_s"] = median([c["reload_end"] - c["reload_start"] for c in cycles])
    layers["training.incremental.fold_s"] = median([c["stages"].get("total", 0.0) for c in cycles])
    layers["training.incremental.mine_s"] = median([c["stages"].get("mine", 0.0) for c in cycles])
    layers["training.incremental.classifier_s"] = median(
        [c["stages"].get("classifier", 0.0) for c in cycles]
    )
    layers["training.incremental.dirty_records"] = median([c["dirty"] for c in cycles])
    layers["training.cli.overhead_s"] = median(
        [c["train_wall"] - c["stages"].get("total", 0.0) for c in cycles]
    )
    layers["runtime.snapshot.load_s"] = median(load_s)
    layers["runtime.snapshot.bytes"] = first.stat().st_size
    if tracer is not None:
        layers["tracing.overhead_share"] = traced_overhead(outcome)
        tracer.write(work.parent / "spans" / "refresh.tsv")
    return result
