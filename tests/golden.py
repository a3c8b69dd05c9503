"""The golden record: what the conftest model answers, pinned.

The parity suites compare every detection path with the reference
detector, so a change to shared code (segmenter, conceptualizer, pattern
derivation, classifier fit, a rule constant) moves every path together
and passes them. The record pins the answers themselves:

- ``payload_sha256``: SHA-256 over one ``detection_payload`` JSON line
  per query of :func:`record_queries` (the held-out eval set plus
  connector, structural and out-of-vocabulary cases), from the reference
  detector. Decisions (head, modifiers, constraints, method) are pinned
  exactly; each score to :data:`SCORE_DIGITS` significant digits, since
  float bits may differ across Python and NumPy builds;
- R1 head accuracy and R6 constraint accuracy and F1 on the eval set,
  and R6's mean constraint probability over the gold modifiers (which
  moves with the classifier's weights even when no flag flips), each to
  :data:`SCORE_DIGITS` significant digits.

``tests/test_golden_record.py`` recomputes the record and compares. A
change that means to move the answers rewrites it with::

    PYTHONPATH=src python -m tests.golden

which prints how many detections changed and the accuracy deltas; log
every rewrite in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

RECORD_PATH = Path(__file__).with_name("golden_record.json")

#: Significant digits each score and metric is pinned to.
SCORE_DIGITS = 10

#: Cases beyond the eval set: connector restrictions and fallbacks,
#: all-structural queries, and text outside the taxonomy.
EXTRA_QUERIES = (
    "cases for iphone 5s",
    "cheap hotels in rome",
    "cheap cases for iphone 5s for travel",
    "hotels near rome airport",
    "best resorts in chicago",
    "screen protector without bubbles",
    "zzqx for glorp",
    "best of the best",
    "for",
    "how to the",
    "",
    "zzqx glorp widget",
    "frobnicate zzz",
    "inc.",
    "  iPhone-5S  Smart_Cover.",
    "café wi‑fi résumé",
)


def _digits(value: float) -> str:
    return f"{value:.{SCORE_DIGITS}g}"


def record_queries(eval_examples) -> list[str]:
    """The pinned query set, in a fixed order."""
    return [example.query for example in eval_examples] + list(EXTRA_QUERIES)


def payload_lines(detector, queries) -> list[str]:
    """One canonical JSON line per query: the wire payload with its
    score cut to :data:`SCORE_DIGITS` significant digits."""
    from repro.serving.http import detection_payload

    lines = []
    for query in queries:
        payload = detection_payload(detector.detect(query))
        payload["score"] = _digits(payload["score"])
        lines.append(json.dumps(payload, sort_keys=True))
    return lines


def compute_record(model, detector, eval_examples) -> tuple[dict, list[str]]:
    """The record for ``model`` (its reference ``detector``) on
    ``eval_examples``, and the payload lines it digests."""
    from repro.eval import evaluate_constraints, evaluate_head_detection

    lines = payload_lines(detector, record_queries(eval_examples))
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    heads = evaluate_head_detection(detector, eval_examples)
    classifier = model.classifier
    constraints = evaluate_constraints(classifier, eval_examples)
    probabilities = [
        classifier.constraint_probability(example.query, modifier.surface)
        for example in eval_examples
        for modifier in example.gold.modifiers
    ]
    record = {
        "queries": len(lines),
        "score_digits": SCORE_DIGITS,
        "payload_sha256": digest,
        "r1_head_accuracy": _digits(heads.head_accuracy),
        "r6_constraint_accuracy": _digits(constraints.accuracy),
        "r6_constraint_f1": _digits(constraints.f1),
        "r6_mean_probability": _digits(sum(probabilities) / len(probabilities)),
    }
    return record, lines


def conftest_inputs():
    """The model, reference detector and eval set of ``tests/conftest.py``."""
    from repro import (
        LogConfig,
        TrainingConfig,
        build_from_seed,
        generate_log,
        train_model,
    )
    from repro.eval import build_eval_set

    taxonomy = build_from_seed()
    model = train_model(
        generate_log(taxonomy, LogConfig(seed=7, num_intents=1500)),
        taxonomy,
        TrainingConfig(),
    )
    heldout = generate_log(taxonomy, LogConfig(seed=99, num_intents=700))
    eval_examples = build_eval_set(heldout, min_modifiers=1, max_examples=600)
    return model, model.detector(), eval_examples


def main() -> int:
    """Rewrite the record and report what moved."""
    model, detector, eval_examples = conftest_inputs()
    record, lines = compute_record(model, detector, eval_examples)
    lines_path = RECORD_PATH.with_suffix(".lines")
    if RECORD_PATH.exists():
        old = json.loads(RECORD_PATH.read_text())
        for key, value in record.items():
            if old.get(key) != value:
                print(f"{key}: {old.get(key)} -> {value}")
        if lines_path.exists():
            before = lines_path.read_text().splitlines()
            changed = sum(a != b for a, b in zip(before, lines)) + abs(
                len(before) - len(lines)
            )
            print(f"detections changed: {changed} of {len(lines)}")
    RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    lines_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {RECORD_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
