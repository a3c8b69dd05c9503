"""Bit-identity of the incremental trainer against full retraining.

The contract is the strongest the repo knows: folding a delta into the
persisted state must reproduce ``train_model_vectorized(merged_log,
taxonomy)`` exactly — same pair supports in the same insertion
order, same pattern table, same classifier weights, same detections —
not approximately, because the serving parity tests downstream compare
detections by equality. Hypothesis drives the fold algebra
(fold(fold(A,B),C) == train(A+B+C)) over adversarial little logs where
delta queries collide with base queries and with each other.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
import textwrap
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import LogConfig, TrainingConfig, generate_log
from repro.core.constraints import ConstraintClassifier
from repro.errors import ModelError
from repro.mining.pairs import MiningConfig
from repro.querylog.models import QueryLog
from repro.training.evidence import DropEvidence, record_drop_evidence
from repro.training.incremental import (
    _STATE_PRELUDE,
    IncrementalTrainer,
    _ProbeView,
)
from repro.training.vectorized import train_model_vectorized

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
    return train_model_vectorized(merged, taxonomy, TrainingConfig())


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


def test_recompile_follows_in_process_fold(split_logs, taxonomy):
    """Every fold's classifier reads the trainer's one live
    ``LogStatistics``, but a compiled detector's constraint tables are a
    copy taken at compile time: a detector compiled before a fold keeps
    the pre-fold flags, and one compiled after it matches the reference.

    The threshold is set between one modifier's pre- and post-fold
    constraint probabilities (measured on a twin trainer), so the fold
    flips that flag and the two detectors must disagree on it."""
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
    expected_before = [reference.detect(text) for text in queries]
    with model.compile() as compiled:
        assert compiled.detect_batch(queries) == expected_before
        trainer.fold(_log_from(delta))
        expected = [reference.detect(text) for text in queries]
        assert expected[0].constraints != expected_before[0].constraints
        assert [compiled.detect(text) for text in queries] == expected_before
        assert compiled.detect_batch(queries) == expected_before
    with model.compile() as recompiled:
        assert [recompiled.detect(text) for text in queries] == expected
        assert recompiled.detect_batch(queries) == expected


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


#: Builds a base state from a small log and saves it to ``sys.argv[1]``,
#: then folds a delta and saves the folded state to ``sys.argv[2]``.
_BUILD_AND_FOLD = textwrap.dedent(
    """
    import sys
    from repro import LogConfig, TrainingConfig, build_from_seed, generate_log
    from repro.querylog.models import QueryLog
    from repro.training.incremental import IncrementalTrainer

    def log_of(records):
        log = QueryLog()
        for record in records:
            log.add_record(record.query, record.frequency, record.clicks)
        return log

    taxonomy = build_from_seed()
    log = generate_log(taxonomy, LogConfig(seed=11, num_intents=300))
    records = list(log.records())
    trainer = IncrementalTrainer(log_of(records[:240]), taxonomy, TrainingConfig())
    trainer.save(sys.argv[1])
    trainer.fold(log_of(records[240:]))
    trainer.save(sys.argv[2])
    """
)


def test_state_bytes_do_not_depend_on_hash_seed(tmp_path):
    """Two processes under different string-hash seeds write the same
    state bytes, for the base build and after a fold, so a state can be
    checked with ``cmp``."""
    src = str(Path(repro.__file__).parents[1])
    written = []
    for hash_seed in ("1", "2"):
        base = tmp_path / f"base{hash_seed}.hdmt"
        folded = tmp_path / f"folded{hash_seed}.hdmt"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [sys.executable, "-c", _BUILD_AND_FOLD, str(base), str(folded)],
            env=env,
            check=True,
            timeout=300,
        )
        written.append((base.read_bytes(), folded.read_bytes()))
    assert written[0][0] == written[1][0]
    assert written[0][1] == written[1][1]


def test_state_with_frozenset_probes_loads(
    tmp_path, split_logs, taxonomy, reference_model
):
    """States written before probes were saved sorted hold frozensets;
    they still load and fold to the same model."""
    base, delta = split_logs
    trainer = IncrementalTrainer(_log_from(base), taxonomy, TrainingConfig())
    state_path = tmp_path / "trainer.state"
    trainer.save(state_path)
    raw = state_path.read_bytes()
    magic, version, _, _ = _STATE_PRELUDE.unpack_from(raw)
    state = pickle.loads(raw[_STATE_PRELUDE.size :])
    state["probes"] = {
        key: frozenset(probes) for key, probes in state["probes"].items()
    }
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    state_path.write_bytes(
        _STATE_PRELUDE.pack(magic, version, len(payload), zlib.crc32(payload))
        + payload
    )

    loaded = IncrementalTrainer.load(state_path)
    _assert_models_identical(loaded.fold(_log_from(delta)), reference_model)


#: ``DropEvidence("cheap iphone 5s case", "cheap", 0.75, 7)`` as pickled
#: before the class defined ``__reduce__`` (the dataclass getstate/setstate
#: form that state files written then hold).
_OLD_FORM_EVIDENCE = (
    b"\x80\x05\x95^\x00\x00\x00\x00\x00\x00\x00\x8c\x17repro.training.evidence"
    b"\x94\x8c\x0cDropEvidence\x94\x93\x94)\x81\x94]\x94(\x8c\x14cheap iphone 5s "
    b"case\x94\x8c\x05cheap\x94G?\xe8\x00\x00\x00\x00\x00\x00K\x07eb."
)


def test_drop_evidence_pickles_old_and_new_form():
    evidence = DropEvidence("cheap iphone 5s case", "cheap", 0.75, 7)
    assert pickle.loads(_OLD_FORM_EVIDENCE) == evidence
    for protocol in (2, pickle.HIGHEST_PROTOCOL):
        assert pickle.loads(pickle.dumps(evidence, protocol=protocol)) == evidence


# ----------------------------------------------------------------------
# probes only the deletion miner makes
# ----------------------------------------------------------------------

#: Four made-up words: the segmenter leaves each a one-token segment, so
#: the drop-evidence pass probes single words and three-word reductions
#: only, and the two-word halves are probed by the deletion test alone.
_QUERY = "zorp quix blen frat"
_MODIFIER_SIDE, _HEAD_SIDE = "zorp quix", "blen frat"


def _click(rank: int) -> dict[str, int]:
    # One host+path for every record: the deletion test sees a match.
    return {f"https://a.example.com/page?r={rank}": 3}


@pytest.mark.parametrize(
    "base_extra, delta_key, mined_after",
    [
        # The head side is absent from the base log: no pair until the
        # delta adds it.
        ([], _HEAD_SIDE, True),
        # The head side matches and the modifier side is absent: a pair
        # until the delta adds a modifier side that clicks alike.
        ([_HEAD_SIDE], _MODIFIER_SIDE, False),
    ],
)
def test_fold_dirties_a_record_on_a_deletion_only_probe(
    taxonomy, base_extra, delta_key, mined_after
):
    base_rows = [(_QUERY, 4, _click(1))] + [(q, 4, _click(2)) for q in base_extra]
    delta_rows = [(delta_key, 2, _click(3))]
    trainer = IncrementalTrainer(_build_log(base_rows), taxonomy, _FOLD_CONFIG)
    record = trainer.log.lookup(_QUERY)

    # The key is probed by the deletion miner and by nothing else.
    assert delta_key in trainer._probes[_QUERY]
    assert trainer.log.lookup(delta_key) is None
    evidence_only = _ProbeView(trainer.log)
    record_drop_evidence(record, trainer._segmenter, evidence_only.for_record(record))
    assert delta_key not in evidence_only.probes[_QUERY]
    assert (_QUERY in trainer._mined[0]) is not mined_after

    timings: dict[str, float] = {}
    folded = trainer.fold(_build_log(delta_rows), timings=timings)
    assert timings["dirty_records"] == 2  # the delta key and the prober
    assert (_QUERY in trainer._mined[0]) is mined_after
    reference = train_model_vectorized(
        _build_log(base_rows + delta_rows), taxonomy, _FOLD_CONFIG
    )
    _assert_models_identical(folded, reference)


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
    reference = train_model_vectorized(merged, taxonomy, _FOLD_CONFIG)
    _assert_models_identical(folded, reference)
