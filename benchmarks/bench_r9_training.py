"""R9 — Training throughput: the vectorized offline pipeline against the
pure-Python reference.

The serving side was made fast in R7; this guards the *offline* side —
the pipeline a production log refresh has to re-run (mine pairs, derive
concept patterns, build droppability tables, train the constraint
classifier). The fast path (``train_model_vectorized``) must be a
pure throughput choice: bit-identical pattern table and detections,
asserted here on the 2,000-query held-out eval set, and at least 2x the
reference wall time single-core on the 4k-intent log.

Stage timings (mine / derive / features / classifier) are recorded per
scale for both paths; a scale whose vectorized speedup falls below the
2x bar is flagged ``"regression": true`` in the JSON.

Writes ``benchmarks/results/BENCH_r9.json`` and ``r9_training.txt``.
"""

import json

import numpy as np
import pytest

from benchmarks._hw import hardware_info
from benchmarks.conftest import RESULTS_DIR, TRAIN_SEED, publish
from repro import LogConfig, TrainingConfig, generate_log, train_model
from repro.core.analysis import compare_tables
from repro.eval import format_table
from repro.training.vectorized import train_model_vectorized

SCALES = {"4k": 4000, "16k": 16000}
STAGES = ("mine", "derive", "features", "classifier")
MIN_VECTORIZED_SPEEDUP = 2.0


def _train_timed(log, taxonomy, build=train_model):
    timings: dict[str, float] = {}
    model = build(log, taxonomy, TrainingConfig(), timings=timings)
    return model, timings


@pytest.fixture(scope="module")
def training_comparison(taxonomy, train_log, model, eval_queries):
    scales = {}
    regression = False
    parity = None
    for label, num_intents in SCALES.items():
        # The 4k log IS the session train_log (same seed and size), so the
        # parity block below can compare against the session model.
        if label == "4k":
            log = train_log
        else:
            log = generate_log(
                taxonomy, LogConfig(seed=TRAIN_SEED, num_intents=num_intents)
            )
        reference_model, reference = _train_timed(log, taxonomy)
        vectorized_model, vectorized = _train_timed(
            log, taxonomy, train_model_vectorized
        )
        speedup = reference["total"] / vectorized["total"]
        scale_entry = {
            "intents": num_intents,
            "distinct_queries": log.num_queries,
            "mined_pairs": len(reference_model.pairs),
            "patterns": len(reference_model.patterns),
            "reference": reference,
            "vectorized": vectorized,
            "speedup": speedup,
            "regression": speedup < MIN_VECTORIZED_SPEEDUP,
        }
        regression = regression or scale_entry["regression"]
        scales[label] = scale_entry

        if label == "4k":
            # Parity contract on the session-scale artifacts: identical
            # patterns and bit-identical detections on the held-out set.
            diff = compare_tables(model.patterns, vectorized_model.patterns)
            reference_detections = model.detector().detect_batch(eval_queries)
            fast_detections = vectorized_model.detector().detect_batch(eval_queries)
            classifier_identical = (
                model.classifier is not None
                and vectorized_model.classifier is not None
                and np.array_equal(
                    model.classifier.model.weights,
                    vectorized_model.classifier.model.weights,
                )
            )
            parity = {
                "rank_agreement": diff.rank_agreement,
                "patterns_identical": (
                    dict(model.patterns.items())
                    == dict(vectorized_model.patterns.items())
                ),
                "classifier_weights_identical": classifier_identical,
                "eval_queries": len(eval_queries),
                "detections_bit_identical": reference_detections == fast_detections,
            }

    return {
        "hardware": hardware_info(),
        "scales": scales,
        "parity": parity,
        "regression": regression,
    }


def test_r9_training_throughput(training_comparison):
    rows = []
    for label, entry in training_comparison["scales"].items():
        for path in ("reference", "vectorized"):
            timings = entry[path]
            rows.append(
                [
                    label,
                    path,
                    *[timings[stage] for stage in STAGES],
                    timings["total"],
                    f"{entry['speedup']:.2f}x" if path == "vectorized" else "",
                ]
            )
    publish(
        "r9_training",
        format_table(
            ["log", "path", *STAGES, "total s", "speedup"],
            rows,
            title="R9: offline training, reference vs vectorized (seconds)",
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_r9.json").write_text(
        json.dumps(training_comparison, indent=2) + "\n"
    )

    parity = training_comparison["parity"]
    assert parity["rank_agreement"] == 1.0
    assert parity["patterns_identical"]
    assert parity["classifier_weights_identical"]
    assert parity["detections_bit_identical"]
    speedup_4k = training_comparison["scales"]["4k"]["speedup"]
    assert speedup_4k >= MIN_VECTORIZED_SPEEDUP, (
        "vectorized training must be >= "
        f"{MIN_VECTORIZED_SPEEDUP}x the reference on the 4k-intent log, got "
        f"{speedup_4k:.2f}x"
    )


@pytest.mark.parametrize("path", ["reference", "vectorized"])
def test_r9_train_benchmark(benchmark, taxonomy, path):
    """pytest-benchmark timing of a small end-to-end train for each path."""
    log = generate_log(taxonomy, LogConfig(seed=TRAIN_SEED, num_intents=1000))
    build = train_model_vectorized if path == "vectorized" else train_model
    benchmark(lambda: build(log, taxonomy, TrainingConfig()))
