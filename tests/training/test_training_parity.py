"""End-to-end parity of the fast training path.

The acceptance contract of the fast path is the same one PR 1 set for
serving: not approximately equal — *identical*. Same-seed input through
``train_model_vectorized`` must yield the reference ``train_model``'s
pattern table (rank agreement 1.0), pair memory, classifier weights, and
bit-identical detections on the held-out eval set.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import TrainingConfig
from repro.core.analysis import compare_tables
from repro.training.vectorized import train_model_vectorized

EDGE_CASES = [
    "",
    "iphone",
    "cheap iphone 5s case",
    "best hotels in rome 2013",
    "frobnicate zzz",
    "for in for",
]


@pytest.fixture(scope="module")
def fast_trained(train_log, taxonomy):
    timings: dict[str, float] = {}
    model = train_model_vectorized(
        train_log,
        taxonomy,
        TrainingConfig(),
        timings=timings,
    )
    return model, timings


@pytest.fixture(scope="module")
def fast_model(fast_trained):
    return fast_trained[0]


def test_pairs_identical(model, fast_model):
    assert fast_model.pairs.support_map() == model.pairs.support_map()
    assert list(fast_model.pairs.support_map()) == list(model.pairs.support_map())


def test_pattern_table_identical(model, fast_model):
    diff = compare_tables(model.patterns, fast_model.patterns)
    assert diff.rank_agreement == 1.0
    assert not diff.only_in_a and not diff.only_in_b
    assert dict(model.patterns.items()) == dict(fast_model.patterns.items())
    assert [p for p, _ in model.patterns.items()] == [
        p for p, _ in fast_model.patterns.items()
    ]


def test_classifier_identical(model, fast_model):
    reference = model.classifier
    fast = fast_model.classifier
    assert (reference is None) == (fast is None)
    assert reference is not None, "training fixtures must produce a classifier"
    assert np.array_equal(reference.model.weights, fast.model.weights)
    assert reference.model.bias == fast.model.bias
    assert reference.extractor.droppability.concept == fast.extractor.droppability.concept
    assert (
        reference.extractor.droppability.instance
        == fast.extractor.droppability.instance
    )


def test_detections_bit_identical(model, fast_model, eval_examples):
    queries = [example.query for example in eval_examples] + EDGE_CASES
    reference = model.detector().detect_batch(queries)
    fast = fast_model.detector().detect_batch(queries)
    assert reference == fast


def test_stage_timings_populated(fast_trained):
    _, timings = fast_trained
    for stage in ("mine", "derive", "features", "classifier", "total"):
        assert stage in timings
        assert timings[stage] >= 0.0
    assert timings["total"] >= max(
        timings[s] for s in ("mine", "derive", "features", "classifier")
    )

