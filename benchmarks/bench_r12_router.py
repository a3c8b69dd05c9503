"""R12 — Serving: consistent-hash router over shared-snapshot replicas.

R10 measured one serving process; this experiment puts the multi-replica
front door (:mod:`repro.serving.router`) in front of N replica processes
that all mmap the *same* snapshot, and asks the two questions that
justify the architecture:

1. **Is the fleet invisible?** Every response through the router's HTTP
   surface must be byte-identical to the single-process
   ``repro detect --json`` payload for the same query — consistent
   hashing, socket framing, and re-serialization must not perturb a
   single byte. Checked here over a query sample against the compiled
   detector directly.
2. **Does it scale?** Replica result caches are disabled
   (``--cache-size 0``) so measured throughput is real detection work,
   then the same concurrent load (%d in flight) is driven through 1 and
   2 replicas. With more than one usable CPU the fleet should scale
   near-linearly; on a 1-CPU host the second replica only adds IPC and
   scheduling overhead, and the result is flagged ``"regression": true``
   with a WARNING instead of being dressed up — the same honesty rule as
   R7's sharding and R11's singleton rows.

Writes ``benchmarks/results/BENCH_r12.json`` and the human-readable
``r12_router_scaling.txt``.
""" % 64

import asyncio
import json
from time import perf_counter

import pytest

from benchmarks._hw import hardware_info
from benchmarks.conftest import RESULTS_DIR, publish
from repro.core.conceptualizer import Conceptualizer
from repro.eval import format_table
from repro.runtime import CompiledDetector
from repro.serving.http import detection_payload
from repro.serving.http import DetectionHTTPServer
from repro.serving.router import Router, RouterConfig

FLEET_SIZES = (1, 2)
LOAD_QUERIES = 512
IDENTITY_QUERIES = 64
CONCURRENCY = 64
REPS = 5

#: With >1 usable CPU, 2 replicas must reach this multiple of the
#: 1-replica rate; below it (or on a 1-CPU host) the run is flagged.
BAR_SCALING = 1.5


async def _http_detect(port: int, query: str) -> bytes:
    """POST /detect over a raw socket; return the response body bytes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps({"query": query}).encode("utf-8")
    writer.write(
        b"POST /detect HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n"
        b"Content-Length: "
        + str(len(body)).encode("ascii")
        + b"\r\n\r\n"
        + body
    )
    await writer.drain()
    raw = await reader.read(-1)  # Connection: close ends it after one response
    writer.close()
    await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200"), head.splitlines()[:1]
    return payload


def _stage_summary(stages: dict) -> dict:
    """Trim stage histograms to the headline percentiles for the JSON."""
    return {
        name: {
            "count": hist["count"],
            "p50_us": hist["p50_us"],
            "p95_us": hist["p95_us"],
            "p99_us": hist["p99_us"],
        }
        for name, hist in stages.items()
    }


@pytest.fixture(scope="module")
def router_comparison(model, taxonomy, eval_queries, tmp_path_factory):
    compiled = CompiledDetector(
        model.patterns, Conceptualizer(taxonomy), instance_pairs=model.pairs
    )
    snapshot = tmp_path_factory.mktemp("r12") / "model.hdms"
    compiled.save_snapshot(snapshot)
    queries = eval_queries[:LOAD_QUERIES]
    expected = {
        query: (
            json.dumps(detection_payload(compiled.detect(query)), sort_keys=True)
            + "\n"
        ).encode("utf-8")
        for query in queries[:IDENTITY_QUERIES]
    }
    compiled.close()

    async def bench() -> dict:
        fleets: dict[str, dict] = {}
        for size in FLEET_SIZES:
            router = Router(RouterConfig())
            # Cache off: measure detection throughput, not cache hits.
            router.spawn(str(snapshot), size, extra_args=["--cache-size", "0"])
            await router.start()
            server = DetectionHTTPServer(router, port=0)
            await server.start()
            try:
                if size == max(FLEET_SIZES):
                    # Bit-identity through the full HTTP surface, on the
                    # fleet where consistent hashing actually splits load.
                    for query, want in expected.items():
                        got = await _http_detect(server.port, query)
                        assert got == want, f"router response differs: {query!r}"
                await asyncio.gather(*(router.detect(q) for q in queries[:32]))
                semaphore = asyncio.Semaphore(CONCURRENCY)

                async def one(query: str) -> None:
                    async with semaphore:
                        await router.detect(query)

                best = None
                for _ in range(REPS):
                    start = perf_counter()
                    await asyncio.gather(*(one(q) for q in queries))
                    elapsed = perf_counter() - start
                    best = elapsed if best is None else min(best, elapsed)
                stats = await router.stats()
                fleets[str(size)] = {
                    "replicas": size,
                    "qps": len(queries) / best,
                    "router_stages": _stage_summary(
                        stats["router"]["stages"]
                    ),
                    "fleet_stages": _stage_summary(stats["fleet"]["stages"]),
                    "fleet_requests": stats["fleet"]["requests"],
                    "generations": {
                        name: entry["generation"]
                        for name, entry in stats["replicas"].items()
                    },
                }
            finally:
                await server.stop()
        return fleets

    fleets = asyncio.run(bench())
    hardware = hardware_info()
    scaling = fleets["2"]["qps"] / fleets["1"]["qps"]
    return {
        "queries": len(queries),
        "identity_queries": IDENTITY_QUERIES,
        "concurrency": CONCURRENCY,
        "reps": REPS,
        "hardware": hardware,
        "fleets": fleets,
        "scaling_2_vs_1": scaling,
        "bit_identical": True,  # asserted inline above
        # One honest flag: on a 1-CPU host the second replica cannot
        # add throughput (no CPU to run on), so sub-bar scaling there is
        # expected and reported, not hidden.
        "regression": scaling < BAR_SCALING,
    }


def test_r12_router_scaling(router_comparison):
    base_qps = router_comparison["fleets"]["1"]["qps"]
    rows = []
    for size, stats in router_comparison["fleets"].items():
        request = stats["router_stages"].get("request", {})
        rows.append(
            [
                size,
                stats["qps"],
                stats["qps"] / base_qps,
                request.get("p50_us", 0.0),
                request.get("p95_us", 0.0),
                request.get("p99_us", 0.0),
            ]
        )
    publish(
        "r12_router_scaling",
        format_table(
            [
                "replicas",
                "q/s",
                "vs 1 replica",
                "request p50 µs",
                "request p95 µs",
                "request p99 µs",
            ],
            rows,
            title="R12: router throughput vs replica count "
            "(bit-identical responses, caches off)",
        ),
    )
    hardware = router_comparison["hardware"]
    if router_comparison["regression"]:
        print(
            "\nWARNING: 2 replicas did not reach "
            f"{BAR_SCALING}x the 1-replica rate "
            f"(got {router_comparison['scaling_2_vs_1']:.2f}x) on this host "
            f"({hardware['usable_cpus']} usable CPU(s)); replica processes "
            "need their own CPUs to add throughput, so on a single-CPU "
            "host the fleet only pays IPC overhead. Flagged "
            "'regression': true in BENCH_r12.json."
        )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_r12.json").write_text(
        json.dumps(router_comparison, indent=2) + "\n"
    )
    if hardware["usable_cpus"] > 1:
        assert router_comparison["scaling_2_vs_1"] >= BAR_SCALING, (
            f"2 replicas on {hardware['usable_cpus']} usable CPUs must "
            f"scale >= {BAR_SCALING}x, got "
            f"{router_comparison['scaling_2_vs_1']:.2f}x"
        )
