"""Bit-identity of the incremental trainer against full retraining.

The contract is the strongest the repo knows: folding a delta into the
persisted state must reproduce ``train_model(merged_log,
vectorized=True)`` exactly — same pair supports in the same insertion
order, same pattern table, same classifier weights, same detections —
not approximately, because the serving parity tests downstream compare
detections by equality. Hypothesis drives the fold algebra
(fold(fold(A,B),C) == train(A+B+C)) over adversarial little logs where
delta queries collide with base queries and with each other.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LogConfig, TrainingConfig, generate_log, train_model
from repro.core.constraints import ConstraintClassifier
from repro.errors import ModelError
from repro.mining.pairs import MiningConfig
from repro.querylog.models import QueryLog
from repro.training.incremental import IncrementalTrainer

EDGE_CASES = [
    "",
    "iphone",
    "cheap iphone 5s case",
    "best hotels in rome 2013",
    "frobnicate zzz",
    "for in for",
]


def _log_from(records) -> QueryLog:
    log = QueryLog()
    for record in records:
        log.add_record(record.query, record.frequency, record.clicks)
    return log


def _concat(*logs: QueryLog) -> QueryLog:
    merged = QueryLog()
    for log in logs:
        for record in log.records():
            merged.add_record(record.query, record.frequency, record.clicks)
    return merged


def _assert_models_identical(folded, reference) -> None:
    assert folded.pairs.support_map() == reference.pairs.support_map()
    assert list(folded.pairs.support_map()) == list(reference.pairs.support_map())
    assert dict(folded.patterns.items()) == dict(reference.patterns.items())
    assert [p for p, _ in folded.patterns.items()] == [
        p for p, _ in reference.patterns.items()
    ]
    assert (folded.classifier is None) == (reference.classifier is None)
    if reference.classifier is not None:
        assert np.array_equal(
            folded.classifier.model.weights, reference.classifier.model.weights
        )
        assert folded.classifier.model.bias == reference.classifier.model.bias
        assert (
            folded.classifier.extractor.droppability.concept
            == reference.classifier.extractor.droppability.concept
        )
        assert (
            folded.classifier.extractor.droppability.instance
            == reference.classifier.extractor.droppability.instance
        )


@pytest.fixture(scope="module")
def split_logs(taxonomy):
    full = generate_log(taxonomy, LogConfig(seed=11, num_intents=900))
    records = list(full.records())
    return records[:700], records[700:]


@pytest.fixture(scope="module")
def reference_model(split_logs, taxonomy):
    base, delta = split_logs
    merged = _log_from(base + delta)
    return train_model(merged, taxonomy, TrainingConfig(), vectorized=True)


@pytest.fixture(scope="module")
def folded_state(split_logs, taxonomy):
    base, delta = split_logs
    trainer = IncrementalTrainer(_log_from(base), taxonomy, TrainingConfig())
    timings: dict[str, float] = {}
    model = trainer.fold(_log_from(delta), timings=timings)
    return trainer, model, timings


def test_fold_matches_full_retrain(folded_state, reference_model):
    _, model, _ = folded_state
    _assert_models_identical(model, reference_model)


def test_fold_touches_fewer_records_than_full_pass(folded_state, split_logs):
    _, _, timings = folded_state
    base, delta = split_logs
    assert timings["dirty_records"] < len(base) + len(delta)
    assert timings["dirty_records"] >= len(delta)


def test_detections_bit_identical(folded_state, reference_model, split_logs):
    _, model, _ = folded_state
    _, delta = split_logs
    queries = [record.query for record in delta[:50]] + EDGE_CASES
    reference = reference_model.detector().detect_batch(queries)
    folded = model.detector().detect_batch(queries)
    assert reference == folded


def test_compiled_memo_follows_in_process_fold(split_logs, taxonomy):
    """Every fold's classifier reads the trainer's one live
    ``LogStatistics``; a compiled detector warmed before a fold must
    not keep serving constraint features (IDF) memoized from the
    pre-fold counters.

    The threshold is set between one modifier's pre- and post-fold
    constraint probabilities (measured on a twin trainer), so the fold
    flips that flag and a stale memo cannot go unnoticed."""
    base, delta = split_logs
    query = "cheap iphone 5s case"

    twin = IncrementalTrainer(_log_from(base), taxonomy, TrainingConfig())
    twin_classifier = twin.model.classifier
    modifier = twin.model.detector().detect(query).modifiers[0]
    before = twin_classifier.constraint_probability(query, modifier)
    twin.fold(_log_from(delta))
    after = twin_classifier.constraint_probability(query, modifier)
    assert twin.stats.drop_similarity(query, modifier) is None
    assert before != after

    trainer = IncrementalTrainer(_log_from(base), taxonomy, TrainingConfig())
    classifier = trainer.model.classifier
    model = dataclasses.replace(
        trainer.model,
        classifier=ConstraintClassifier(
            classifier.extractor, classifier.model, threshold=(before + after) / 2
        ),
    )
    queries = (
        [query]
        + [record.query for record in base[:60]]
        + [record.query for record in delta[:60]]
        + EDGE_CASES
    )
    reference = model.detector()
    flag_before = reference.detect(query).constraints
    with model.compile() as compiled:
        compiled.detect_batch(queries)
        for text in queries:
            compiled.detect(text)
        generation = trainer.stats.generation
        trainer.fold(_log_from(delta))
        assert trainer.stats.generation > generation
        expected = [reference.detect(text) for text in queries]
        assert expected[0].constraints != flag_before
        assert [compiled.detect(text) for text in queries] == expected
        assert compiled.detect_batch(queries) == expected


def test_generation_counts_folds(folded_state):
    trainer, _, _ = folded_state
    assert trainer.generation == 2


def test_state_round_trip(tmp_path, split_logs, taxonomy, reference_model):
    base, delta = split_logs
    trainer = IncrementalTrainer(_log_from(base), taxonomy, TrainingConfig())
    state_path = tmp_path / "trainer.state"
    trainer.save(state_path)

    loaded = IncrementalTrainer.load(state_path)
    with pytest.raises(ModelError, match="no model built yet"):
        _ = loaded.model
    model = loaded.fold(_log_from(delta))
    _assert_models_identical(model, reference_model)
    assert loaded.generation == 2


def test_corrupt_state_rejected(tmp_path, split_logs, taxonomy):
    base, _ = split_logs
    trainer = IncrementalTrainer(_log_from(base[:50]), taxonomy, TrainingConfig())
    state_path = tmp_path / "trainer.state"
    trainer.save(state_path)
    raw = bytearray(state_path.read_bytes())
    raw[-1] ^= 0xFF
    state_path.write_bytes(bytes(raw))
    with pytest.raises(ModelError, match="CRC mismatch"):
        IncrementalTrainer.load(state_path)

    state_path.write_bytes(b"junk" * 16)
    with pytest.raises(ModelError, match="not a training state"):
        IncrementalTrainer.load(state_path)


# ----------------------------------------------------------------------
# hypothesis: fold algebra over adversarial synthetic logs
# ----------------------------------------------------------------------

_TOKEN = st.sampled_from(
    ["iphone", "5s", "galaxy", "case", "cover", "cheap", "rome",
     "hotels", "for", "in", "red", "2013"]
)
_URL = st.sampled_from(
    ["http://a.com/x", "http://a.com/y", "http://b.com/x", "http://c.com/z"]
)
_RECORD = st.tuples(
    st.lists(_TOKEN, min_size=1, max_size=4).map(" ".join),
    st.integers(min_value=1, max_value=6),
    st.dictionaries(_URL, st.integers(min_value=1, max_value=5), max_size=3),
)
_SLICE = st.lists(_RECORD, min_size=0, max_size=12)

_FOLD_CONFIG = TrainingConfig(
    mining=MiningConfig(min_query_frequency=1, min_pair_support=0.0),
)


def _build_log(records) -> QueryLog:
    log = QueryLog()
    for query, frequency, clicks in records:
        log.add_record(query, frequency, clicks)
    return log


@given(a=st.lists(_RECORD, min_size=1, max_size=12), b=_SLICE, c=_SLICE)
@settings(max_examples=25, deadline=None)
def test_fold_fold_equals_train_on_concatenation(taxonomy, a, b, c):
    trainer = IncrementalTrainer(_build_log(a), taxonomy, _FOLD_CONFIG)
    trainer.fold(_build_log(b))
    folded = trainer.fold(_build_log(c))

    merged = _concat(_build_log(a), _build_log(b), _build_log(c))
    reference = train_model(merged, taxonomy, _FOLD_CONFIG, vectorized=True)
    _assert_models_identical(folded, reference)
