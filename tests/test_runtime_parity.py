"""Parity suite: the compiled runtime must be indistinguishable from the
reference detector.

The compiled path (``HdmModel.compile()``) re-implements the reference
hot loops over interned ids and flattened tables; the contract is
*identical output* — heads, modifiers, constraints, concept readings,
scores, and methods — not merely similar accuracy. These tests compare
full :class:`~repro.core.detector.Detection` values (dataclass equality
covers every field, floats included) over the entire held-out evaluation
set plus the structural edge cases.
"""

from __future__ import annotations

import json
import pickle
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.concept_patterns import PatternTable
from repro.core.conceptualizer import Conceptualizer
from repro.core.detector import DetectorConfig
from repro.core.segmentation import Segmenter
from repro.errors import ModelError
from repro.querylog.models import QueryLog
from repro.querylog.stats import LogStatistics, TableStatistics
from repro.runtime import (
    SNAPSHOT_VERSION,
    CompiledDetector,
    CompiledSegmenter,
    PatternMatrix,
    load_snapshot,
    read_snapshot_header,
    save_snapshot,
)
from repro.runtime.compiled import PhraseReading, PhraseTables
from repro.runtime.intern import Interner
from repro.runtime.snapshot import _ALIGN, _PRELUDE, MAGIC
from repro.taxonomy.store import ConceptTaxonomy
from repro.text.normalizer import normalize, normalize_fast

EDGE_CASES = [
    "",
    "   ",
    "best of the best",  # all-structural: no content segments
    "iphone 5s",  # single content segment
    "zzqx glorp widget",  # phrases unseen by the taxonomy
    "for",  # lone connector
    "inc.",  # trailing-period term
    "  iPhone-5S  Smart_Cover.",  # messy casing/whitespace/punctuation
    "café wi‑fi résumé",  # non-ASCII → slow normalize path
    "cases for iphone 5s",  # connector heuristic
    "cheap cases for iphone 5s for travel",  # two connectors: heuristic off
]


@pytest.fixture(scope="module")
def compiled(model):
    return model.compile()


@pytest.fixture(scope="module")
def snapshot_path(compiled, tmp_path_factory):
    path = tmp_path_factory.mktemp("snapshot") / "model.hdms"
    compiled.save_snapshot(path)
    return path


@pytest.fixture(scope="module")
def loaded(snapshot_path):
    return load_snapshot(snapshot_path)


class TestDetectionParity:
    def test_full_eval_set(self, detector, compiled, eval_examples):
        mismatches = [
            example.query
            for example in eval_examples
            if detector.detect(example.query) != compiled.detect(example.query)
        ]
        assert mismatches == []

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_cases(self, detector, compiled, text):
        assert detector.detect(text) == compiled.detect(text)

    def test_small_cache_still_exact(self, model, detector, eval_examples):
        """Eviction churn (tiny LRUs) must never change results."""
        tiny = model.compile(config=DetectorConfig(cache_size=2))
        for example in eval_examples[:50]:
            assert tiny.detect(example.query) == detector.detect(example.query)

    def test_sparse_matrix_parity(self, model, detector, eval_examples):
        """Force the sparse (searchsorted) matrix layout and re-verify."""
        sparse = CompiledDetector(
            model.patterns,
            model.conceptualizer(),
            instance_pairs=model.pairs,
            constraint_classifier=model.classifier,
            dense_limit=0,
        )
        assert not sparse._matrix.dense
        for example in eval_examples[:100]:
            assert sparse.detect(example.query) == detector.detect(example.query)


class TestNormalizeFastParity:
    """``normalize_fast`` is the serving layer's cache key; it must be
    *the same function* as the reference normalizer, not an
    approximation — a single divergent input would alias distinct
    queries (wrong cached answers) or split identical ones."""

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=60))
    def test_matches_reference_on_arbitrary_text(self, text):
        assert normalize_fast(text) == normalize(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789$%.' ", max_size=60))
    def test_matches_reference_on_canonical_looking_text(self, text):
        # Concentrates on the fast path's own alphabet, where skipping
        # the regex passes must still be exact.
        assert normalize_fast(text) == normalize(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    def test_idempotent_on_normal_forms(self, text):
        # Cache keys are re-normalized on lookup; normal forms must be
        # fixed points or one query would occupy two cache slots.
        assert normalize_fast(normalize(text)) == normalize(text)

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_cases(self, text):
        assert normalize_fast(text) == normalize(text)


class TestCacheStats:
    def test_counters_expose_runtime_cache_traffic(self, model):
        fresh = model.compile()
        stats = fresh.cache_stats()
        assert set(stats) == {
            "readings",
            "context",
            "affinity",
            "modifier",
            "head_terms",
            "modifier_terms",
            "other_terms",
            "constraints",
        }
        for entry in stats.values():
            assert entry["hits"] == 0 and entry["misses"] == 0
        fresh.detect("zzqx glorp widget")  # unknown phrases → cache misses
        fresh.detect("zzqx glorp widget")  # repeat → cache hits
        after = fresh.cache_stats()
        assert after["readings"]["misses"] > 0
        assert after["readings"]["hits"] > 0
        assert 0.0 <= after["readings"]["hit_rate"] <= 1.0


class TestSegmenterParity:
    def test_eval_queries(self, taxonomy, eval_examples):
        reference = Segmenter(taxonomy)
        fast = CompiledSegmenter(taxonomy)
        for example in eval_examples:
            assert fast.segment(example.query) == reference.segment(example.query)

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_cases(self, taxonomy, text):
        assert CompiledSegmenter(taxonomy).segment(text) == Segmenter(
            taxonomy
        ).segment(text)

    def test_without_taxonomy(self):
        assert CompiledSegmenter().segment("some new words") == Segmenter().segment(
            "some new words"
        )


class TestPhraseReadings:
    """The precompiled PhraseReading views must agree with each other and
    with the reference conceptualizer they were flattened from."""

    def test_views_are_consistent(self, compiled):
        stride = compiled._matrix.stride
        readings = list(compiled._compiled_readings.items())
        assert readings, "compiled model precomputed no phrase readings"
        for _, reading in readings[:200]:
            assert isinstance(reading, PhraseReading)
            ids = reading.ids.tolist()
            probs = reading.probs.tolist()
            assert [prob for _, prob in reading.concepts] == probs
            assert reading.head_items == list(zip(ids, probs))
            assert reading.mod_items == [
                (id_ * stride, id_, prob) for id_, prob in zip(ids, probs)
            ]

    def test_concepts_match_reference_conceptualizer(self, compiled):
        config = compiled._config
        if config.hierarchy_discount > 0:
            pytest.skip("readings are ancestor-expanded under a discount")
        for phrase, reading in list(compiled._compiled_readings.items())[:200]:
            assert reading.concepts == tuple(
                compiled._conceptualizer.conceptualize(
                    phrase, config.top_k_concepts
                )
            )


class TestBatch:
    def test_batch_matches_sequential(self, compiled, eval_examples):
        queries = [example.query for example in eval_examples[:40]]
        assert compiled.detect_batch(queries) == [
            compiled.detect(query) for query in queries
        ]

    def test_batch_dedupes_and_preserves_order(self, compiled):
        queries = ["iphone 5s case", "hotel paris", "iphone 5s case"]
        results = compiled.detect_batch(queries)
        assert [r.query for r in results] == queries
        assert results[0] is results[2]  # duplicate shares the Detection


def assert_same_tables(original, restored):
    """The constraint tables round-trip exactly, in the same order: table
    A's rows and decisions, table B's CSR rows, and the document
    frequencies. The click log itself deliberately does not ship."""
    assert restored.phrases == original.phrases
    assert restored.vectors.tobytes() == original.vectors.tobytes()
    assert restored.decisions == original.decisions
    want, got = original.statistics, restored.statistics
    assert isinstance(got, TableStatistics) and not hasattr(got, "log")
    for name in ("queries", "offsets", "spans", "similarities"):
        assert list(getattr(got.edges, name)) == list(getattr(want.edges, name))
    assert list(got.document_frequencies.items()) == list(
        want.document_frequencies.items()
    )
    assert got.num_queries == want.num_queries


_WORDS = st.text(alphabet="abcxyzéüñ日本ß", min_size=1, max_size=6)


@st.composite
def small_logs(draw):
    """Small logs with non-ASCII queries and URLs (the vocab is UTF-8)."""
    log = QueryLog()
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        words = draw(st.lists(_WORDS, min_size=1, max_size=3))
        clicks = draw(
            st.dictionaries(
                _WORDS.map(lambda path: f"http://shop.例え.jp/{path}"),
                st.integers(min_value=1, max_value=40),
                max_size=4,
            )
        )
        log.add_record(" ".join(words), draw(st.integers(1, 500)), clicks)
    return log


class TestSnapshotParity:
    """save → load must be bit-identical, not merely close."""

    def test_roundtrip_full_eval_set(self, compiled, loaded, eval_examples):
        mismatches = [
            example.query
            for example in eval_examples
            if compiled.detect(example.query) != loaded.detect(example.query)
        ]
        assert mismatches == []

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_roundtrip_edge_cases(self, compiled, loaded, text):
        assert compiled.detect(text) == loaded.detect(text)

    def test_loaded_matches_reference_detector(self, detector, loaded, eval_examples):
        for example in eval_examples[:100]:
            assert loaded.detect(example.query) == detector.detect(example.query)

    def test_header_describes_model(self, snapshot_path, compiled):
        header = read_snapshot_header(snapshot_path)
        assert header["version"] == SNAPSHOT_VERSION
        assert header["stride"] == compiled._matrix.stride
        assert header["counts"]["phrases"] == len(compiled._compiled_readings)
        assert header["has_classifier"]
        assert header["payload_bytes"] > 0
        assert header["sections"]["vocab_blob"]["bytes"] > 0

    def test_log_statistics_survive_roundtrip(self, compiled, loaded):
        # train_model binds live LogStatistics to the classifier; the
        # snapshot carries the constraint tables taken from them, so
        # constraint features stay exact without the click log.
        live = compiled._classifier.extractor.stats
        assert live.log.num_sessions > 0 and live.log.gold_labels
        original = compiled._constraint_tables
        restored = loaded._constraint_tables
        assert original.statistics is not None
        assert_same_tables(original, restored)
        assert loaded._classifier.extractor.stats is restored.statistics
        assert restored.statistics.phrase_idf("iphone") == live.phrase_idf("iphone")

    def test_load_runs_no_pickle(self, snapshot_path, compiled, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("snapshot load must not unpickle")

        monkeypatch.setattr(pickle, "loads", refuse)
        monkeypatch.setattr(pickle, "Unpickler", refuse)
        restored = load_snapshot(snapshot_path)
        for text in EDGE_CASES:
            assert restored.detect(text) == compiled.detect(text)

    @settings(max_examples=25, deadline=None)
    @given(log=small_logs(), absorbed=st.integers(min_value=0, max_value=3))
    def test_random_logs_roundtrip(self, model, tmp_path_factory, log, absorbed):
        stats = LogStatistics(log)
        for record in list(log.records())[:absorbed]:
            stats.absorb(record, new_query=False)
        tiny = CompiledDetector(
            PatternTable({}),
            Conceptualizer(ConceptTaxonomy()),
            constraint_classifier=model.classifier.with_stats(stats),
        )
        path = tmp_path_factory.mktemp("random-log") / "tiny.hdms"
        tiny.save_snapshot(path)
        restored = load_snapshot(path)._constraint_tables
        assert_same_tables(tiny._constraint_tables, restored)
        for record in log.records():
            tokens = record.query.split()
            for start in range(len(tokens)):
                for end in range(start + 1, len(tokens) + 1):
                    span = " ".join(tokens[start:end])
                    assert restored.statistics.drop_similarity(
                        record.query, span
                    ) == stats.drop_similarity(record.query, span)

    def test_phrase_tables_equal_a_rebuild(self, loaded):
        """The shipped phrase-id and engine tables are what
        ``PhraseTables.build`` derives from the loaded structures."""
        rebuilt = PhraseTables.build(
            loaded._compiled_readings,
            loaded._compiled_context,
            loaded._automaton,
            loaded._support_map,
            loaded._config.instance_smoothing,
        )
        for name in PhraseTables._fields:
            shipped = getattr(loaded._phrase_tables, name)
            assert np.array_equal(getattr(rebuilt, name), shipped), name

    def test_loaded_arrays_are_readonly_views(self, loaded):
        reading = next(iter(loaded._compiled_readings.values()))
        assert not reading.ids.flags.writeable  # mmap-backed, not copied

    def test_loaded_snapshot_is_resnapshotable(self, snapshot_path, tmp_path):
        """Saving a loaded detector writes the file it was loaded from,
        byte for byte: a load restores exactly what compile built, and
        the writer's layout depends on the tables alone."""
        second = tmp_path / "second.hdms"
        load_snapshot(snapshot_path).save_snapshot(second)
        assert second.read_bytes() == snapshot_path.read_bytes()


class TestSnapshotPath:
    """``snapshot_path`` names the file a detector was saved to or loaded
    from (the service reads its lineage generation there)."""

    def test_saved_snapshot_is_recorded_and_kept(self, model, tmp_path):
        path = tmp_path / "served.hdms"
        detector = model.compile(snapshot_path=path)
        with detector:
            assert detector.snapshot_path == str(path)
        assert path.exists()  # close() never deletes a user-saved snapshot
        assert load_snapshot(path).snapshot_path == str(path)
        assert model.compile().snapshot_path is None

    def test_pickle_roundtrip_detects_identically(self, compiled, eval_examples):
        queries = [example.query for example in eval_examples[:40]]
        compiled.detect_batch(queries)  # builds the engine the copy drops
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone._engine is None
        assert clone.detect_batch(queries) == compiled.detect_batch(queries)


class TestSnapshotErrors:
    def _mutated(self, snapshot_path, tmp_path, mutate):
        data = bytearray(snapshot_path.read_bytes())
        mutate(data)
        bad = tmp_path / "bad.hdms"
        bad.write_bytes(bytes(data))
        return bad

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelError, match="unreadable"):
            read_snapshot_header(tmp_path / "nope.hdms")

    def test_empty_file_is_truncated(self, tmp_path):
        empty = tmp_path / "empty.hdms"
        empty.write_bytes(b"")
        with pytest.raises(ModelError, match="truncated"):
            read_snapshot_header(empty)

    def test_bad_magic(self, tmp_path):
        junk = tmp_path / "junk.hdms"
        junk.write_bytes(b"definitely not a model snapshot")
        with pytest.raises(ModelError, match="bad magic"):
            load_snapshot(junk)

    def test_wrong_version(self, snapshot_path, tmp_path):
        bad = self._mutated(
            snapshot_path,
            tmp_path,
            lambda data: data.__setitem__(
                slice(8, 12), struct.pack("<I", SNAPSHOT_VERSION + 1)
            ),
        )
        with pytest.raises(ModelError, match="unsupported snapshot version"):
            load_snapshot(bad)

    def test_version_1_is_refused(self, snapshot_path, tmp_path):
        bad = self._mutated(
            snapshot_path,
            tmp_path,
            lambda data: data.__setitem__(slice(8, 12), struct.pack("<I", 1)),
        )
        with pytest.raises(
            ModelError,
            match=r"unsupported snapshot version 1 \(this build reads version 4\)",
        ):
            load_snapshot(bad)

    def test_version_2_is_refused(self, snapshot_path, tmp_path):
        """Version 2 shipped the click log; its files are refused, not
        read as tables."""
        bad = self._mutated(
            snapshot_path,
            tmp_path,
            lambda data: data.__setitem__(slice(8, 12), struct.pack("<I", 2)),
        )
        with pytest.raises(
            ModelError,
            match=r"unsupported snapshot version 2 \(this build reads version 4\)",
        ):
            load_snapshot(bad)

    def test_version_3_is_refused(self, snapshot_path, tmp_path):
        """Version 3 files lack the phrase-id and engine tables version 4
        ships, and lay the vocabulary out differently; they are refused,
        not re-derived."""
        bad = self._mutated(
            snapshot_path,
            tmp_path,
            lambda data: data.__setitem__(slice(8, 12), struct.pack("<I", 3)),
        )
        with pytest.raises(
            ModelError,
            match=r"unsupported snapshot version 3 \(this build reads version 4\)",
        ):
            load_snapshot(bad)

    def test_truncated_payload(self, snapshot_path, tmp_path):
        data = snapshot_path.read_bytes()
        cut = tmp_path / "cut.hdms"
        cut.write_bytes(data[:-512])
        with pytest.raises(ModelError, match="truncated"):
            load_snapshot(cut)

    def test_corrupted_payload_fails_crc(self, snapshot_path, tmp_path):
        bad = self._mutated(
            snapshot_path,
            tmp_path,
            lambda data: data.__setitem__(-1, data[-1] ^ 0xFF),
        )
        with pytest.raises(ModelError, match="CRC"):
            load_snapshot(bad)

    def test_custom_segmenter_is_not_snapshotable(self, model, taxonomy, tmp_path):
        bespoke = CompiledDetector(
            model.patterns,
            model.conceptualizer(),
            instance_pairs=model.pairs,
            segmenter=Segmenter(taxonomy),
        )
        with pytest.raises(ModelError, match="compiled segmenter"):
            save_snapshot(bespoke, tmp_path / "x.hdms")


def _resealed(snapshot_path, tmp_path, edit):
    """A copy of the snapshot after ``edit(header, payload)``, with the
    payload CRC recomputed so only the section checks can refuse it."""
    header = read_snapshot_header(snapshot_path)
    start = header.pop("_payload_start")
    payload = bytearray(snapshot_path.read_bytes()[start:])
    edit(header, payload)
    header["payload_crc32"] = zlib.crc32(payload)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    prelude = _PRELUDE.pack(MAGIC, SNAPSHOT_VERSION, len(header_bytes))
    pad = (-(len(prelude) + len(header_bytes))) % _ALIGN
    bad = tmp_path / "resealed.hdms"
    bad.write_bytes(prelude + header_bytes + b"\x00" * pad + bytes(payload))
    return bad


def _store(section, index, value):
    """An ``edit`` that overwrites one int64 of ``section``."""

    def edit(header, payload):
        entry = header["sections"][section]
        count = entry["count"]
        struct.pack_into("<q", payload, entry["offset"] + 8 * (index % count), value)

    return edit


def _adjust(section, **deltas):
    """An ``edit`` that shifts fields of ``section``'s table entry."""

    def edit(header, payload):
        entry = header["sections"][section]
        for key, delta in deltas.items():
            entry[key] += delta

    return edit


def _denormalize(header, payload):
    """An ``edit`` that upper-cases the first taxonomy instance's string
    in the vocabulary blob, so it is no longer in normal form."""
    sections = header["sections"]

    def int64(section, index):
        entry = sections[section]
        return struct.unpack_from("<q", payload, entry["offset"] + 8 * index)[0]

    start = int64("vocab_offsets", int64("edge_instances", 0))
    at = sections["vocab_blob"]["offset"] + start
    payload[at : at + 1] = payload[at : at + 1].upper()


_OFFSETS = "offsets rising from 0"
_VOCAB = "vocab id out of range"
_SHORT = "entries for"
_FREQUENCY = "frequency must be positive"
_PHRASE = "phrase id out of range"


class TestLogSectionChecks:
    """Malformed sections under a valid CRC raise ModelError naming the
    file and the section: the constraint tables (``drop_*``,
    ``log_df_*``, ``constraint_*``), the vocabulary, the taxonomy edges,
    the readings and the phrase-id and engine tables."""

    @pytest.mark.parametrize(
        ("edit", "section", "problem"),
        [
            pytest.param(
                _store("drop_offsets", 2, 10**6),
                "drop_offsets",
                _OFFSETS,
                id="offsets-not-monotone",
            ),
            pytest.param(
                _store("drop_offsets", -1, 10**6),
                "drop_offsets",
                _OFFSETS,
                id="offsets-end-past-clicks",
            ),
            pytest.param(
                _store("drop_offsets", 0, 1),
                "drop_offsets",
                _OFFSETS,
                id="offsets-start-nonzero",
            ),
            pytest.param(
                _adjust("drop_offsets", count=-1, bytes=-8),
                "drop_offsets",
                _OFFSETS,
                id="offsets-short",
            ),
            pytest.param(
                _adjust("drop_queries", count=-1, bytes=-8),
                "drop_offsets",
                _OFFSETS,
                id="offsets-one-extra",
            ),
            pytest.param(
                _store("drop_queries", 0, -1),
                "drop_queries",
                _VOCAB,
                id="query-id-negative",
            ),
            pytest.param(
                _store("drop_spans", 3, 10**9),
                "drop_spans",
                _VOCAB,
                id="span-id-out-of-range",
            ),
            pytest.param(
                _store("log_df_terms", 0, 10**9),
                "log_df_terms",
                _VOCAB,
                id="term-id-out-of-range",
            ),
            pytest.param(
                _adjust("log_df_counts", count=-1, bytes=-8),
                "log_df_counts",
                _SHORT,
                id="frequencies-short",
            ),
            pytest.param(
                _adjust("drop_similarities", count=-1, bytes=-8),
                "drop_similarities",
                _SHORT,
                id="similarities-short",
            ),
            pytest.param(
                _adjust("constraint_vectors", count=-1, bytes=-8),
                "constraint_vectors",
                _SHORT,
                id="vectors-short",
            ),
            pytest.param(
                _adjust("constraint_decisions", count=-1, bytes=-8),
                "constraint_decisions",
                _SHORT,
                id="decisions-short",
            ),
            pytest.param(
                _store("constraint_decisions", 0, 2),
                "constraint_decisions",
                "decision must be 0 or 1",
                id="decision-not-boolean",
            ),
            pytest.param(
                _adjust("drop_spans", count=1),
                "drop_spans",
                "count past its bytes",
                id="count-past-bytes",
            ),
            pytest.param(
                _adjust("log_df_terms", offset=10**7),
                "log_df_terms",
                "past the payload",
                id="section-past-payload",
            ),
            pytest.param(
                _store("log_df_counts", 5, 0),
                "log_df_counts",
                _FREQUENCY,
                id="frequency-zero",
            ),
            pytest.param(
                _store("log_df_counts", 0, -3),
                "log_df_counts",
                _FREQUENCY,
                id="frequency-negative",
            ),
            pytest.param(
                _store("vocab_offsets", 2, 10**6),
                "vocab_offsets",
                _OFFSETS,
                id="vocab-offsets-not-rising",
            ),
            pytest.param(
                _store("edge_instances", 0, -1),
                "edge_instances",
                _VOCAB,
                id="edge-instance-id-negative",
            ),
            pytest.param(
                _adjust("edge_counts", count=-1, bytes=-8),
                "edge_counts",
                _SHORT,
                id="edge-counts-short",
            ),
            pytest.param(
                _store("edge_counts", 0, 0),
                "edge_counts",
                "edge count must be positive",
                id="edge-count-zero",
            ),
            pytest.param(
                _denormalize,
                "edge_instances",
                "not in normal form",
                id="taxonomy-term-not-normal",
            ),
            pytest.param(
                _store("reading_offsets", 1, 10**6),
                "reading_offsets",
                _OFFSETS,
                id="reading-offsets-not-rising",
            ),
            pytest.param(
                _store("reading_ids", 0, 10**9),
                "reading_ids",
                "concept id out of range",
                id="reading-id-out-of-range",
            ),
            pytest.param(
                _store("context_offsets", 1, 10**6),
                "context_offsets",
                _OFFSETS,
                id="context-offsets-not-rising",
            ),
            pytest.param(
                _store("phrase_readings", 1, 10**6),
                "phrase_readings",
                "group id out of range",
                id="reading-group-out-of-range",
            ),
            pytest.param(
                _store("phrase_readings", 0, 1),
                "phrase_readings",
                "numbered by first occurrence",
                id="reading-groups-unnumbered",
            ),
            pytest.param(
                _adjust("phrase_bases", count=-1, bytes=-8),
                "phrase_bases",
                _SHORT,
                id="base-groups-short",
            ),
            pytest.param(
                _store("vseg_state_phrases", 0, 10**9),
                "vseg_state_phrases",
                _PHRASE,
                id="state-phrase-out-of-range",
            ),
            pytest.param(
                _store("vseg_state_phrases", 0, -2),
                "vseg_state_phrases",
                _PHRASE,
                id="state-phrase-negative",
            ),
            pytest.param(
                _adjust("vseg_state_phrases", count=-1, bytes=-8),
                "vseg_state_phrases",
                _SHORT,
                id="state-phrases-short",
            ),
            pytest.param(
                _store("instance_keys", 0, 10**15),
                "instance_keys",
                "phrase pair id out of range",
                id="instance-key-out-of-range",
            ),
            pytest.param(
                _store("instance_keys", 1, 0),
                "instance_keys",
                "keys not rising",
                id="instance-keys-not-rising",
            ),
            pytest.param(
                _adjust("instance_values", count=-1, bytes=-8),
                "instance_values",
                _SHORT,
                id="instance-values-short",
            ),
        ],
    )
    def test_malformed_section_is_refused(
        self, snapshot_path, tmp_path, edit, section, problem
    ):
        bad = _resealed(snapshot_path, tmp_path, edit)
        where = re.escape(f"{bad}: corrupted snapshot section {section} (")
        with pytest.raises(ModelError, match=where + ".*" + re.escape(problem)):
            load_snapshot(bad)

    def test_missing_section_is_refused(self, snapshot_path, tmp_path):
        bad = _resealed(
            snapshot_path,
            tmp_path,
            lambda header, payload: header["sections"].pop("log_df_counts"),
        )
        with pytest.raises(ModelError, match="no section log_df_counts"):
            load_snapshot(bad)

    def test_resealed_copy_still_loads(self, snapshot_path, tmp_path, compiled):
        """The helper itself leaves a loadable file when nothing is edited."""
        good = _resealed(snapshot_path, tmp_path, lambda header, payload: None)
        assert load_snapshot(good).detect("cases for iphone 5s") == compiled.detect(
            "cases for iphone 5s"
        )


class TestCompiledStructures:
    def test_pattern_matrix_matches_table(self, model):
        interner = Interner(sorted(model.patterns.concepts()))
        matrix = PatternMatrix(model.patterns, interner)
        for pattern, weight in model.patterns.items():
            key = (
                interner.id_of(pattern.modifier_concept) * matrix.stride
                + interner.id_of(pattern.head_concept)
            )
            assert matrix.raw_map[key] == weight
            assert matrix.norm_map[key] == model.patterns.score(
                pattern.modifier_concept, pattern.head_concept
            )

    def test_unknown_concepts_score_zero(self, compiled):
        assert compiled._pattern_score("zzqx glorp", "vrml snork") == 0.0

    def test_cache_size_must_be_positive(self):
        with pytest.raises(ModelError):
            DetectorConfig(cache_size=0)

    def test_interner_round_trip(self):
        interner = Interner(["b", "a", "b"])
        assert len(interner) == 2
        assert interner.id_of("b") == 0
        assert interner.string_of(1) == "a"
        assert interner.id_of("missing") == -1
