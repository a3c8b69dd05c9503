"""The ``batch-annotate`` system under test: one offline process.

Run by :mod:`perfbench.batch` as ``python3 -m perfbench.batch_child
SPEC.json``. It repeats passes until the run's seconds are spent; each
pass loads the snapshot afresh (``CompiledDetector.load_snapshot``),
builds the vectorized engine with a warm-up chunk, then annotates every
query of the pool exactly once with ``detect_batch`` in fixed-size
chunks. Afterwards every pass's detections are checked ``==`` per-query
``detect`` on a separately loaded detector, and a seeded sample is
pickled for the parent to check against the reference detector.

In traced runs every second pass is traced: instance-attribute wrappers
time ``detect_batch``, the classifier's ``annotate``, the feature
extractor's ``extract``, its conceptualizer's ``conceptualize`` and
scalar ``detect`` fallbacks. The untraced passes of the same run give
the tracing overhead.
"""

from __future__ import annotations

import json
import pickle
import sys
from pathlib import Path
from time import perf_counter

from perfbench.common import (
    CALIBRATION_REFERENCE_S,
    calibrate,
    median,
    peak_rss_mb,
    percentile,
)
from perfbench.trace import Tracer

MIN_PASSES = 3
#: One host-speed calibration slice before every this many chunks.
CALIBRATE_EVERY = 8


def _install_spans(detector, tracer: Tracer) -> None:
    classifier = detector._classifier
    extractor = classifier.extractor
    tracer.wrap(detector, "detect", "runtime.compiled.detect")
    tracer.wrap(classifier, "annotate", "core.constraints.annotate")
    tracer.wrap(extractor, "extract", "core.features.extract")
    tracer.wrap(extractor._conceptualizer, "conceptualize", "core.conceptualizer.conceptualize")


def _one_pass(path, queries, warm, chunk, tracer):
    from repro.runtime.compiled import CompiledDetector

    setup_slices = [calibrate()]
    started = perf_counter()
    detector = CompiledDetector.load_snapshot(path)
    loaded = perf_counter()
    detector.detect_batch(warm)  # first batch builds the engine
    built = perf_counter()
    detector.detect_batch(warm)  # same chunk again: the steady-state cost
    steady = perf_counter()
    setup_slices.append(calibrate())
    setup_slowdown = median(setup_slices) / CALIBRATION_REFERENCE_S
    if tracer is not None:
        _install_spans(detector, tracer)
    detections = []
    chunk_seconds = []
    calibrations = []
    for index, start in enumerate(range(0, len(queries), chunk)):
        if index % CALIBRATE_EVERY == 0:
            calibrations.append(calibrate())
        texts = queries[start : start + chunk]
        span = tracer.begin("runtime.vectorized.detect_batch", index) if tracer is not None else -1
        began = perf_counter()
        detections.extend(detector.detect_batch(texts))
        chunk_seconds.append(perf_counter() - began)
        if tracer is not None:
            tracer.finish(span)
    cache = detector.cache_stats()
    detector.close()
    # Host speed around each group of chunks, relative to the reference
    # host (median of the slices before, at and after the group): the
    # chunk timings are scaled by it, so a slow phase of a shared host
    # does not read as a slow detector.
    local = [
        median(calibrations[max(group - 1, 0) : group + 2]) / CALIBRATION_REFERENCE_S
        for group in range(len(calibrations))
    ]
    scaled = [
        seconds / local[index // CALIBRATE_EVERY]
        for index, seconds in enumerate(chunk_seconds)
    ]
    return {
        "slowdown": median(calibrations) / CALIBRATION_REFERENCE_S,
        "setup_s": (built - started) / setup_slowdown,
        "load_s": loaded - started,
        "engine_build_s": (built - loaded) - (steady - built),
        "chunk_seconds": scaled,
        "qps": len(queries) / sum(scaled),
        "raw_qps": len(queries) / sum(chunk_seconds),
        "cache_hits": sum(entry["hits"] for entry in cache.values()),
        "cache_lookups": sum(entry["hits"] + entry["misses"] for entry in cache.values()),
        "traced": tracer is not None,
    }, detections


def main(spec_path: str) -> int:
    from repro.runtime.compiled import CompiledDetector

    spec = json.loads(Path(spec_path).read_text())
    path, queries, warm = spec["snapshot"], spec["queries"], spec["warm"]
    chunk, trace = spec["chunk"], spec["trace"]
    tracer = Tracer() if trace else None
    passes, first = [], None
    mismatches = 0
    deadline = perf_counter() + spec["seconds"]
    while len(passes) < MIN_PASSES or perf_counter() + passes[-1]["wall_s"] <= deadline:
        traced = tracer if trace and len(passes) % 2 == 1 else None
        began = perf_counter()
        record, detections = _one_pass(path, queries, warm, chunk, traced)
        record["wall_s"] = perf_counter() - began
        passes.append(record)
        # Later passes must repeat the first exactly; only the first is
        # kept, so peak memory does not grow with the number of passes.
        if first is None:
            first = detections
        else:
            mismatches += sum(1 for got, want in zip(detections, first) if got != want)
        del detections
    rss_mb = peak_rss_mb(["self"])

    reference = CompiledDetector.load_snapshot(path)
    expected = [reference.detect(query) for query in queries]
    reference.close()
    mismatches += sum(1 for got, want in zip(first, expected) if got != want)
    mismatches += abs(len(first) - len(expected))
    Path(spec["sample_out"]).write_bytes(
        pickle.dumps([expected[index] for index in spec["sample"]])
    )

    plain = [record for record in passes if not record["traced"]]
    chunk_us = [s * 1e6 for record in plain for s in record["chunk_seconds"]]
    result = {
        "passes": len(passes),
        "pass_raw_qps": [round(r["raw_qps"]) for r in passes],
        "pass_qps": [round(r["qps"]) for r in passes],
        "calibration_ms": median([r["slowdown"] for r in passes]) * CALIBRATION_REFERENCE_S * 1e3,
        "queries_per_pass": len(queries),
        "mismatches": mismatches,
        "checked": len(queries) * len(passes),
        "setup_s": median([record["setup_s"] for record in passes]),
        "load_s": median([record["load_s"] for record in passes]),
        "engine_build_s": median([record["engine_build_s"] for record in passes]),
        "qps": median([record["qps"] for record in plain]),
        "chunk_p50_us": percentile(chunk_us, 50),
        "chunk_p99_us": percentile(chunk_us, 99),
        "chunks": len(chunk_us),
        "rss_mb": rss_mb,
        "cache_hit_rate": _ratio(
            sum(r["cache_hits"] for r in passes), sum(r["cache_lookups"] for r in passes)
        ),
    }
    if tracer is not None:
        traced = [record for record in passes if record["traced"]]
        result["traced_qps"] = median([record["qps"] for record in traced])
        result["traced_queries"] = len(queries) * len(traced)
        result["spans"] = tracer.totals()
        traced_hits = sum(r["cache_hits"] for r in traced)
        result["cache_hit_rate"] = _ratio(traced_hits, sum(r["cache_lookups"] for r in traced))
        tracer.write(Path(spec["spans_out"]))
    print(json.dumps(result))
    return 0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
