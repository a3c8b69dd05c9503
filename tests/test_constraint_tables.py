"""The constraint step as tables (``ConstraintTables``).

A compiled detector answers the paper's step 4 from two tables built at
compile time: table A, each known phrase's 13-slot modifier vector and
its no-evidence decision, and table B, every logged query's drop
similarities. These tests pin table A against the feature extractor and
the classifier's single-row scoring, and show that a snapshot-loaded
detector reads no click map and computes modifier vectors only for
phrases outside table A.
"""

from __future__ import annotations

import pytest

from repro.core.features import ConstraintFeatureExtractor, NO_DROP_EVIDENCE
from repro.querylog import stats as log_stats
from repro.runtime import load_snapshot
from repro.runtime.compiled import ConstraintMemo, ConstraintTables

_DROP_SLOTS = [8, 9]  # drop_similarity, drop_evidence_missing


@pytest.fixture(scope="module")
def compiled(model):
    return model.compile()


@pytest.fixture(scope="module")
def snapshot_path(compiled, tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "model.hdms"
    compiled.save_snapshot(path)
    return path


@pytest.fixture(scope="module")
def heldout_queries(heldout_log, train_log):
    """1,000 distinct held-out queries; the logged ones carry drop edges."""
    queries = list(dict.fromkeys(record.query for record in heldout_log.records()))
    queries += [record.query for record in train_log.records()]
    queries = list(dict.fromkeys(queries))[:1000]
    assert len(queries) == 1000
    return queries


def test_table_a_rows_equal_modifier_vectors(model, compiled):
    tables = compiled._constraint_tables
    assert isinstance(tables, ConstraintTables)
    assert tables.phrases == list(compiled._compiled_readings)
    live = model.classifier.extractor
    for phrase, row in tables.rows.items():
        vector = live._modifier_vector(phrase)
        assert tables.vectors[row].tobytes() == vector.tobytes(), phrase
        assert (vector[_DROP_SLOTS] == 0.0).all()


def test_table_a_decisions_equal_single_row_scoring(model, compiled):
    tables = compiled._constraint_tables
    classifier = model.classifier
    flags = set()
    for phrase, decision in zip(tables.phrases, tables.decisions):
        features = classifier.extractor._modifier_vector(phrase)
        features[_DROP_SLOTS] = NO_DROP_EVIDENCE
        probability = float(classifier.model.predict_proba(features)[0])
        assert decision == (probability >= classifier.threshold), phrase
        flags.add(decision)
    assert flags == {True, False}


def test_table_b_is_taken_at_compile_time(model, compiled):
    live = model.classifier.extractor.stats
    statistics = compiled._constraint_tables.statistics
    assert isinstance(statistics, log_stats.TableStatistics)
    assert statistics.document_frequencies is not live.document_frequencies
    assert dict(statistics.document_frequencies) == dict(live.document_frequencies)
    assert len(statistics.edges) > 0


def test_loaded_detector_reads_no_click_map(
    model, snapshot_path, heldout_queries, monkeypatch
):
    """A fresh snapshot-loaded detector runs 1,000 distinct held-out
    queries with every click-map read patched to raise, and computes a
    modifier vector only for phrases outside table A."""
    expected = [model.detector().detect(query) for query in heldout_queries]

    def refuse(*args, **kwargs):
        raise AssertionError("a click map was read")

    monkeypatch.setattr(log_stats, "click_similarity", refuse)
    monkeypatch.setattr(log_stats, "_cosine", refuse)
    monkeypatch.setattr(log_stats.SimilarityCache, "click_similarity", refuse)
    monkeypatch.setattr(log_stats.LogStatistics, "drop_similarity", refuse)
    computed: list[str] = []
    original = ConstraintFeatureExtractor._modifier_vector

    def spy(self, modifier):
        computed.append(modifier)
        return original(self, modifier)

    monkeypatch.setattr(ConstraintFeatureExtractor, "_modifier_vector", spy)
    fresh = load_snapshot(snapshot_path)
    assert [fresh.detect(query) for query in heldout_queries] == expected
    memo = fresh._constraints
    assert isinstance(memo, ConstraintMemo)
    rows = fresh._constraint_tables.rows
    assert computed and not any(phrase in rows for phrase in computed)
    stats = fresh.cache_stats()["constraints"]
    assert stats["vectors"] == len(computed) == len(set(computed))
    assert stats["hits"] > stats["misses"] > 0
    evidenced = [
        query for query in heldout_queries if memo.record(query) is not None
    ]
    assert evidenced  # table B answered some queries


def test_loaded_classifier_annotates_from_tables(compiled, snapshot_path, heldout_queries):
    """The loaded classifier's reference ``annotate`` reads the same
    tables through its extractor and agrees with the compiled flags."""
    loaded = load_snapshot(snapshot_path)
    classifier = loaded._classifier
    assert classifier.extractor.stats is loaded._constraint_tables.statistics
    for query in heldout_queries[:200]:
        detection = compiled.detect(query)
        if detection.method != "structural":
            assert classifier.annotate(detection) == detection


def test_term_memo_counters(model, heldout_queries):
    """Every term lookup of scalar ``detect`` and ``detect_batch`` is
    counted once, on the memo that answers it."""
    fresh = model.compile()
    queries = heldout_queries[:100]
    terms = sum(len(fresh.detect(query).terms) for query in queries)
    fresh.detect_batch(queries)
    stats = fresh.cache_stats()
    names = ("head_terms", "modifier_terms", "other_terms")
    assert sum(stats[n]["hits"] + stats[n]["misses"] for n in names) == 2 * terms
    for name in names:
        assert stats[name]["misses"] == stats[name]["size"]
        assert 0.0 < stats[name]["hit_rate"] < 1.0
    constraints = stats["constraints"]
    assert constraints["hits"] + constraints["misses"] == fresh._constraints.lookups
    assert constraints["misses"] == constraints["size"]


def test_speller_queries_find_their_edges(model, train_log):
    """With a speller, the corrected query is what table B is looked up
    under; typo'd logged queries get the reference's flags."""
    reference = model.detector(correct_spelling=True)
    compiled = model.compile(correct_spelling=True)
    typos = []
    for record in list(train_log.records())[:400]:
        tokens = record.query.split()
        long = [i for i, token in enumerate(tokens) if len(token) >= 5]
        if long:
            i = long[0]
            token = tokens[i]
            tokens[i] = token[0] + token[2] + token[1] + token[3:]
            typos.append(" ".join(tokens))
    found = 0
    for text in typos:
        detection = compiled.detect(text)
        assert detection == reference.detect(text), text
        found += compiled._constraints.record(detection.query) is not None
    assert found > 0
