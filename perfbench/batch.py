"""``batch-annotate``: offline annotation of distinct held-out queries.

The parent trains the input model, writes the shipped snapshot and the
seeded query pool, then runs :mod:`perfbench.batch_child` as the one
process under test (so its peak RSS is the annotator's, not the
harness's). After the child exits, a seeded sample of its detections is
checked ``==`` against the reference ``model.detector()``.
"""

from __future__ import annotations

import json
import pickle
import random
import subprocess
import sys
from pathlib import Path

from perfbench.common import (
    ROOT,
    BenchError,
    Result,
    child_env,
    heldout_queries,
    shipped_model,
    taxonomy,
    write_shipped_snapshot,
)

HELDOUT_INTENTS = 20_000
WARM_QUERIES = 32
#: Queries per ``detect_batch`` call: above ``MIN_VECTORIZED_BATCH`` (32),
#: small enough that a run yields over a thousand chunk latencies.
CHUNK = 64
REFERENCE_SAMPLE = 300
CHILD_TIMEOUT_S = 150


def run(seed: int, seconds: int, trace: bool, work: Path) -> Result:
    tax = taxonomy()
    model = shipped_model(tax)
    snapshot = work / "shipped.hdms"
    write_shipped_snapshot(model, snapshot)
    queries = heldout_queries(seed, HELDOUT_INTENTS, tax)
    warm, pool = queries[:WARM_QUERIES], queries[WARM_QUERIES:]
    sample = sorted(random.Random(seed).sample(range(len(pool)), REFERENCE_SAMPLE))
    spec = {
        "snapshot": str(snapshot),
        "queries": pool,
        "warm": warm,
        "seconds": seconds,
        "trace": trace,
        "chunk": CHUNK,
        "sample": sample,
        "sample_out": str(work / "sample.pickle"),
        "spans_out": str(work.parent / "spans" / "batch-annotate.tsv"),
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    try:
        child = subprocess.run(
            [sys.executable, "-m", "perfbench.batch_child", str(spec_path)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"batch process exceeded {CHILD_TIMEOUT_S}s") from exc
    if child.returncode != 0:
        raise BenchError(f"batch process failed:\n{child.stderr[-2000:]}")
    out = json.loads(child.stdout.strip().splitlines()[-1])

    # Detections from the child process's own sample (written by it).
    sampled = pickle.loads((work / "sample.pickle").read_bytes())
    reference = model.detector()
    reference_mismatches = sum(
        reference.detect(pool[index]) != detection
        for index, detection in zip(sample, sampled)
    )
    problems = []
    if out["mismatches"]:
        problems.append(
            f"{out['mismatches']} of {out['checked']} batch detections differ "
            "from per-query detect on the same snapshot"
        )
    if reference_mismatches:
        problems.append(
            f"{reference_mismatches} of {len(sample)} sampled detections differ "
            "from the reference detector"
        )

    result = Result(
        attempted=out["checked"],
        failed=0,
        problems=problems,
        end_to_end={
            "setup_s": out["setup_s"],
            "throughput_qps": out["qps"],
            "latency_p50_us": out["chunk_p50_us"],
            "rss_mb": out["rss_mb"],
        },
        info={
            "batch_qps (queries/s, = throughput_qps)": out["qps"],
            "passes": out["passes"],
            "pass throughput, raw (q/s)": out["pass_raw_qps"],
            "pass throughput, host-scaled (q/s)": out["pass_qps"],
            "queries per pass": out["queries_per_pass"],
            "latency samples (detect_batch chunks)": out["chunks"],
            "queries per chunk": CHUNK,
            "reference sample checked": len(sample),
        },
    )
    layers = result.per_layer
    layers["runtime.snapshot.load_s"] = out["load_s"]
    layers["runtime.snapshot.bytes"] = snapshot.stat().st_size
    layers["runtime.vectorized.engine_build_s"] = out["engine_build_s"]
    layers["runtime.compiled.cache.hit_rate"] = out["cache_hit_rate"]
    layers["latency_p99_us"] = out["chunk_p99_us"]
    layers["host.calibration_ms"] = out["calibration_ms"]
    layers["latency.samples"] = out["chunks"]
    if trace:
        spans = out["spans"]
        queries_traced = out["traced_queries"]

        def span(name: str, key: str) -> float:
            return spans.get(name, {}).get(key, 0.0)

        batch_s = span("runtime.vectorized.detect_batch", "seconds")
        annotate_s = span("core.constraints.annotate", "seconds")
        extract_calls = span("core.features.extract", "count")
        layers["runtime.vectorized.detect_batch.self_us_per_query"] = (
            span("runtime.vectorized.detect_batch", "self_seconds") / queries_traced * 1e6
        )
        layers["core.constraints.annotate.us_per_query"] = annotate_s / queries_traced * 1e6
        layers["core.constraints.annotate.share"] = annotate_s / batch_s if batch_s else 0.0
        layers["core.features.extract.calls_per_query"] = extract_calls / queries_traced
        layers["core.features.extract.us_per_call"] = (
            span("core.features.extract", "seconds") / extract_calls * 1e6
            if extract_calls
            else 0.0
        )
        layers["core.conceptualizer.conceptualize.calls_per_query"] = (
            span("core.conceptualizer.conceptualize", "count") / queries_traced
        )
        layers["runtime.compiled.detect.fallback_share"] = (
            span("runtime.compiled.detect", "count") / queries_traced
        )
        layers["tracing.overhead_share"] = out["qps"] / out["traced_qps"] - 1.0
    return result
