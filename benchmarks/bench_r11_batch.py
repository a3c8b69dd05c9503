"""R11 — Runtime: array-at-a-time batch detection vs per-query paths.

The compiled runtime (R7) still walked one query at a time in Python, so
a coalesced serving batch cost the same per query as singletons. The
vectorized engine (:mod:`repro.runtime.vectorized`) runs segmentation
and head scoring for the whole batch as NumPy array programs over
interned token ids, bit-identical to per-query ``detect``.

This bench sweeps batch size (1/16/64/256/1024) over the same query set
and compares three paths of the shipped configuration
(``model.compile()``, constraint classifier on): ``detect_batch``
through the vectorized engine, the per-query compiled loop, and the
per-query reference detector (``model.detector()``). Amortizing the fixed NumPy dispatch cost needs real batches —
the singleton row is *expected* to show no win (flagged
``"regression": true`` honestly, like R7's sharding rows on a 1-CPU
host). Those measured small-batch regressions are why ``detect_batch``
now routes batches below :data:`~repro.runtime.compiled.MIN_VECTORIZED_BATCH`
through the scalar loop by default; the sweep hands those batches to the
engine directly (``_vectorized_engine().detect_batch``) so the
regression rows stay measured instead of being hidden by the cutoff,
and the ``routed`` field records which path a default call takes. The
checked-in claim (ROADMAP item 4's bar): at batch ≥ 256, vectorized
throughput is ≥ 1.5x the per-query compiled rate of the same run, on
the same detector and queries — a ratio taken on one host in one run,
so it does not move with the machine.

Writes ``benchmarks/results/BENCH_r11.json`` and the human-readable
``r11_batch_detection.txt``.
"""

import json

import pytest

from benchmarks._hw import hardware_info
from benchmarks.conftest import RESULTS_DIR, publish
from repro.eval import format_table
from repro.runtime.compiled import MIN_VECTORIZED_BATCH
from repro.utils.timer import Timer

BATCH_SIZES = (1, 16, 64, 256, 1024)
SWEEP_QUERIES = 1024
REPS = 5

#: The acceptance bar: vectorized batches at ≥ this size must clear
#: this multiple of the same run's per-query compiled throughput.
BAR_BATCH = 256
BAR_SPEEDUP = 1.5


def _best_of(reps: int, run) -> float:
    """Best wall-clock of ``reps`` runs (steady-state, noise-resistant)."""
    best = None
    for _ in range(reps):
        with Timer() as timer:
            run()
        best = timer.elapsed if best is None else min(best, timer.elapsed)
    return best


@pytest.fixture(scope="module")
def batch_comparison(model, eval_queries):
    queries = eval_queries[:SWEEP_QUERIES]
    assert model.classifier is not None  # the shipped configuration
    compiled = model.compile()
    reference = model.detector()

    # Bit-identity first: the throughput numbers are only meaningful if
    # the batched output equals the per-query compiled path exactly.
    assert compiled.vectorized_batch
    mismatches = [
        query
        for query, batched in zip(eval_queries, compiled.detect_batch(eval_queries))
        if batched != compiled.detect(query)
    ]
    assert mismatches == [], f"vectorized parity broke on {mismatches[:3]}"
    reference.detect_batch(queries[:50])  # warm the reference caches

    engine = compiled._vectorized_engine()
    sweep = {}
    for size in BATCH_SIZES:
        chunks = [queries[i : i + size] for i in range(0, len(queries), size)]
        # Sub-cutoff rows go to the engine directly so they stay
        # measured (a default call would route them scalar and hide the
        # regression).
        run_batch = (
            compiled.detect_batch if size >= MIN_VECTORIZED_BATCH else engine.detect_batch
        )

        def run_vectorized():
            for chunk in chunks:
                run_batch(chunk)

        def run_scalar():
            for chunk in chunks:
                for query in chunk:
                    compiled.detect(query)

        def run_reference():
            for chunk in chunks:
                for query in chunk:
                    reference.detect(query)

        vectorized_qps = len(queries) / _best_of(REPS, run_vectorized)
        scalar_qps = len(queries) / _best_of(REPS, run_scalar)
        reference_qps = len(queries) / _best_of(REPS, run_reference)
        sweep[str(size)] = {
            "vectorized_qps": vectorized_qps,
            "compiled_per_query_qps": scalar_qps,
            "reference_qps": reference_qps,
            "speedup_vs_per_query": vectorized_qps / scalar_qps,
            # Singletons cannot amortize array dispatch; say so honestly
            # instead of hiding the row.
            "regression": vectorized_qps < scalar_qps,
            # What a *default* detect_batch call does at this size now
            # that sub-cutoff batches route scalar.
            "routed": (
                "vectorized" if size >= MIN_VECTORIZED_BATCH else "scalar"
            ),
        }

    return {
        "queries": len(queries),
        "reps": REPS,
        "hardware": hardware_info(),
        "classifier": True,
        "min_vectorized_batch": MIN_VECTORIZED_BATCH,
        "batch_sizes": sweep,
        "regression": any(s["regression"] for s in sweep.values()),
    }


def test_r11_batch_detection(batch_comparison):
    rows = []
    for size, stats in batch_comparison["batch_sizes"].items():
        rows.append(
            [
                size,
                stats["vectorized_qps"],
                stats["compiled_per_query_qps"],
                stats["reference_qps"],
                stats["speedup_vs_per_query"],
                "yes" if stats["regression"] else "",
                stats["routed"],
            ]
        )
    publish(
        "r11_batch_detection",
        format_table(
            [
                "batch",
                "vectorized q/s",
                "per-query q/s",
                "reference q/s",
                "vs per-query",
                "regression",
                "default routes",
            ],
            rows,
            title="R11: vectorized batch detection vs per-query paths",
        ),
    )
    if batch_comparison["regression"]:
        hardware = batch_comparison["hardware"]
        print(
            "\nWARNING: some batch sizes do not beat the per-query compiled "
            f"loop on this host ({hardware['usable_cpus']} usable CPU(s)); "
            "array dispatch has a fixed per-batch cost that small "
            "batches cannot amortize. detect_batch therefore routes "
            f"batches under {MIN_VECTORIZED_BATCH} texts through the "
            "scalar loop by default (see the 'default routes' column)."
        )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_r11.json").write_text(
        json.dumps(batch_comparison, indent=2) + "\n"
    )
    for size, stats in batch_comparison["batch_sizes"].items():
        if int(size) >= BAR_BATCH:
            speedup = stats["speedup_vs_per_query"]
            assert speedup >= BAR_SPEEDUP, (
                f"vectorized batch={size} must be >= {BAR_SPEEDUP}x the "
                f"per-query compiled rate of the same run, got {speedup:.2f}x"
            )
