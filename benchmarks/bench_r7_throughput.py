"""R7 — Runtime: detection latency/throughput vs. pattern-table size,
and the compiled runtime against the reference path.

The mechanism ran in production for search relevance and ads matching, so
per-query cost matters. Detection cost is dominated by segmentation plus
a (top-k × top-k) pattern lookup per candidate pair, so it should be
nearly flat in table size (hash lookups) and linear in query batch size.

Expected shape: thousands of queries/second on one core; < 2x spread
between a 10-pattern table and the full table; the compiled runtime
(``HdmModel.compile()``) at ≥ 3x the reference single-core throughput.

Besides the human-readable tables, the runtime comparison writes
``benchmarks/results/BENCH_r7.json`` (queries/sec plus p50/p99 per-query
latency per path, with the host's hardware block) so the numbers can be
checked in. Snapshot costs are not timed here: perfbench reports them
for the shipped detector (classifier and log statistics included) as
``runtime.snapshot.load_s`` and ``runtime.snapshot.bytes``.
"""

import json
import time

import pytest

from benchmarks._hw import hardware_info
from benchmarks.conftest import RESULTS_DIR, publish
from repro.core import HeadModifierDetector, Segmenter
from repro.core.conceptualizer import Conceptualizer
from repro.eval import format_table
from repro.runtime import CompiledDetector
from repro.utils.timer import Timer

TABLE_SIZES = (10, 40, None)  # None = full table


def make_detector(model, taxonomy, size):
    table = model.patterns if size is None else model.patterns.pruned_to_count(size)
    return HeadModifierDetector(
        table,
        Conceptualizer(taxonomy),
        instance_pairs=model.pairs,
        segmenter=Segmenter(taxonomy),
    )


@pytest.fixture(scope="module")
def throughput_rows(model, taxonomy, eval_queries):
    queries = eval_queries[:1000]
    rows = []
    for size in TABLE_SIZES:
        detector = make_detector(model, taxonomy, size)
        detector.detect_batch(queries[:50])  # warm the concept cache
        with Timer() as timer:
            detector.detect_batch(queries)
        label = len(model.patterns) if size is None else size
        rows.append(
            [label, len(queries), timer.elapsed * 1000, len(queries) / timer.elapsed]
        )
    return rows


def make_compiled(model, taxonomy):
    return CompiledDetector(
        model.patterns,
        Conceptualizer(taxonomy),
        instance_pairs=model.pairs,
    )


def measure_path(detector, queries, latencies=True):
    """Batch wall time (cold caches, same warmup as the size sweep) plus
    optional warm per-query latency percentiles."""
    detector.detect_batch(queries[:50])
    with Timer() as timer:
        detector.detect_batch(queries)
    per_query_ms = []
    if latencies:
        for query in queries:
            start = time.perf_counter()
            detector.detect(query)
            per_query_ms.append((time.perf_counter() - start) * 1000)
    stats = {
        "batch_ms": timer.elapsed * 1000,
        "queries_per_sec": len(queries) / timer.elapsed,
    }
    if per_query_ms:
        ranked = sorted(per_query_ms)
        stats["p50_ms"] = ranked[len(ranked) // 2]
        stats["p99_ms"] = ranked[min(len(ranked) - 1, int(len(ranked) * 0.99))]
    return stats


@pytest.fixture(scope="module")
def runtime_comparison(model, taxonomy, eval_queries):
    queries = eval_queries[:1000]
    reference = measure_path(make_detector(model, taxonomy, None), queries)
    compiled = measure_path(make_compiled(model, taxonomy), queries)
    return {
        "queries": len(queries),
        "hardware": hardware_info(),
        "paths": {"reference": reference, "compiled": compiled},
        "compiled_speedup": compiled["queries_per_sec"] / reference["queries_per_sec"],
    }


def test_r7_runtime_comparison(runtime_comparison):
    rows = []
    for name, stats in runtime_comparison["paths"].items():
        rows.append(
            [
                name,
                runtime_comparison["queries"],
                stats["batch_ms"],
                stats["queries_per_sec"],
                stats.get("p50_ms", float("nan")),
                stats.get("p99_ms", float("nan")),
            ]
        )
    publish(
        "r7_runtime_comparison",
        format_table(
            [
                "path",
                "queries",
                "batch ms",
                "queries/sec",
                "p50 ms",
                "p99 ms",
            ],
            rows,
            title="R7: reference vs compiled runtime (full table)",
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_r7.json").write_text(
        json.dumps(runtime_comparison, indent=2) + "\n"
    )
    assert runtime_comparison["compiled_speedup"] >= 3.0, (
        "compiled runtime must be >= 3x reference throughput, got "
        f"{runtime_comparison['compiled_speedup']:.2f}x"
    )


@pytest.mark.parametrize("size", TABLE_SIZES, ids=["10", "40", "full"])
def test_r7_throughput(benchmark, size, model, taxonomy, eval_queries, throughput_rows):
    if size == TABLE_SIZES[0]:
        publish(
            "r7_throughput",
            format_table(
                ["patterns", "queries", "batch ms", "queries/sec"],
                throughput_rows,
                title="R7: single-core detection throughput vs pattern-table size",
            ),
        )
        rates = [row[3] for row in throughput_rows]
        assert min(rates) > 2000, "expected thousands of queries/second"
        assert max(rates) / min(rates) < 2.0, "cost should be ~flat in table size"
    detector = make_detector(model, taxonomy, size)
    batch = eval_queries[:200]
    detector.detect_batch(batch)  # warm cache before timing
    benchmark(lambda: detector.detect_batch(batch))
