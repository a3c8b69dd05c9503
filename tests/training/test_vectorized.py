"""Stage-level bit-parity of the vectorized training primitives.

Each test pins one fast stage against the reference loop it replaces.
The full-pipeline contract lives in ``test_training_parity.py``; these
granular checks exist so a parity break points at the guilty stage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.concept_patterns import derive_pattern_table
from repro.core.conceptualizer import Conceptualizer
from repro.core.features import (
    ConstraintFeatureExtractor,
    build_droppability_tables,
)
from repro.core.pipeline import TrainingConfig, _stage_recorder, constraint_training_rows
from repro.mining.pairs import MiningConfig, default_miners, mine_pairs
from repro.training.evidence import SimilarityCache
from repro.training.vectorized import (
    TrainingFeatures,
    assemble_model,
    build_droppability_tables_vectorized,
    derive_pattern_table_vectorized,
    mine_records,
    training_rows_from_evidence,
)


@pytest.fixture(scope="module")
def mined_pairs(train_log):
    return mine_pairs(train_log, MiningConfig())


@pytest.fixture(scope="module")
def kernel_output(train_log, segmenter):
    return mine_records(
        SimilarityCache(train_log),
        list(train_log.records()),
        default_miners(MiningConfig()),
        segmenter,
    )


@pytest.fixture(scope="module")
def evidence(kernel_output):
    _, per_record = kernel_output
    return [row for rows in per_record for row in rows]


def _assert_tables_identical(reference, vectorized):
    assert dict(reference.items()) == dict(vectorized.items())
    assert [p for p, _ in reference.items()] == [p for p, _ in vectorized.items()]


@pytest.mark.parametrize("discount", [0.0, 0.3])
def test_derive_matches_reference(mined_pairs, taxonomy, discount):
    reference = derive_pattern_table(
        mined_pairs, Conceptualizer(taxonomy), 5, hierarchy_discount=discount
    )
    vectorized = derive_pattern_table_vectorized(
        mined_pairs, Conceptualizer(taxonomy), 5, hierarchy_discount=discount
    )
    _assert_tables_identical(reference, vectorized)


def test_derive_with_memoized_conceptualizer(mined_pairs, taxonomy):
    reference = derive_pattern_table(mined_pairs, Conceptualizer(taxonomy), 5)
    vectorized = derive_pattern_table_vectorized(
        mined_pairs, Conceptualizer(taxonomy, cache_size=10_000), 5
    )
    _assert_tables_identical(reference, vectorized)


def test_droppability_matches_reference(train_stats, taxonomy, segmenter, evidence):
    reference = build_droppability_tables(
        train_stats, Conceptualizer(taxonomy), segmenter
    )
    vectorized = build_droppability_tables_vectorized(
        evidence, Conceptualizer(taxonomy)
    )
    assert reference.concept == vectorized.concept
    assert reference.instance == vectorized.instance
    assert list(reference.concept) == list(vectorized.concept)
    assert list(reference.instance) == list(vectorized.instance)


def test_training_rows_match_reference(train_stats, segmenter, evidence):
    ref_rows, ref_labels, ref_weights = constraint_training_rows(
        train_stats, segmenter, 0.5
    )
    rows, labels, weights = training_rows_from_evidence(evidence, 0.5)
    assert rows == ref_rows
    assert labels == ref_labels
    assert weights == ref_weights


def test_extract_training_batch_matches_extract_batch(
    train_stats, taxonomy, segmenter, evidence
):
    """The one training matrix (:class:`TrainingFeatures`) against the
    reference ``extract_batch``, built twice to exercise its memo."""
    conceptualizer = Conceptualizer(taxonomy)
    droppability = build_droppability_tables(train_stats, conceptualizer, segmenter)
    extractor = ConstraintFeatureExtractor(
        conceptualizer, stats=train_stats, droppability=droppability
    )
    rows, _, _ = training_rows_from_evidence(evidence)
    reference = extractor.extract_batch(rows)
    features = TrainingFeatures(conceptualizer)
    for _ in range(2):
        batched = features.training_matrix(
            rows, [e.similarity for e in evidence], extractor
        )
        assert reference.shape == batched.shape
        assert np.array_equal(reference, batched)


def test_mine_records_replays_to_mine_pairs(
    train_log, train_stats, taxonomy, kernel_output, mined_pairs
):
    """:func:`assemble_model` replays the per-record batches of
    :func:`mine_records` in ``mine_pairs``' miner-major add order."""
    mined, per_record = kernel_output
    assert len(per_record) == len(mined[0]) == train_log.num_queries
    conceptualizer = Conceptualizer(taxonomy, cache_size=10_000)
    model = assemble_model(
        mined,
        per_record,
        train_stats,
        conceptualizer,
        TrainingFeatures(conceptualizer),
        TrainingConfig(train_classifier=False),
        _stage_recorder(None),
    )
    assert model.pairs.support_map() == mined_pairs.support_map()
    assert list(model.pairs.support_map()) == list(mined_pairs.support_map())
    assert model.classifier is None


def test_similarity_cache_matches_stats(train_stats, evidence):
    cache = SimilarityCache(train_stats.log)
    for item in evidence[:200]:
        record = train_stats.log.lookup(item.query)
        assert cache.drop_similarity(record, item.segment) == (
            train_stats.drop_similarity(item.query, item.segment)
        )
        assert item.similarity == train_stats.drop_similarity(
            item.query, item.segment
        )


def test_empty_inputs():
    from repro.mining.pairs import PairCollection

    empty_table = derive_pattern_table_vectorized(
        PairCollection(), Conceptualizer.__new__(Conceptualizer), 5
    )
    assert len(empty_table) == 0
    tables = build_droppability_tables_vectorized(
        [], Conceptualizer.__new__(Conceptualizer)
    )
    assert tables.is_empty
    rows, labels, weights = training_rows_from_evidence([])
    assert rows == [] and labels == [] and weights == []
