"""Parity suite for the array-at-a-time batch path.

``VectorizedDetector`` re-implements segmentation and head scoring as
whole-batch NumPy array programs; the contract is the same as every
other fast path in this repo — *bit-identical output*, enforced here by
full :class:`~repro.core.detector.Detection` equality against the
per-query compiled twin over the evaluation set, random property
batches, and the snapshot round trip. ``SegmentationAutomaton`` is
additionally pinned against the span tables it was compiled from.
"""

from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.detector import DetectorConfig
from repro.errors import ModelError
from repro.runtime import (
    SegmentationAutomaton,
    VectorizedDetector,
    load_snapshot,
)
from repro.runtime.compiled import MIN_VECTORIZED_BATCH, ConstraintMemo
from repro.runtime.snapshot import _ALIGN, _PRELUDE
from tests.conftest import parity_settings

EDGE_TEXTS = [
    "",
    "   ",
    "best of the best",
    "cases for iphone 5s",
    "inc.",  # '.' routes through the scalar fallback
    "a.b.c",
    "café wi‑fi résumé",
    "ünïcödé tökêns",
    "zzqx glorp widget",  # fully out-of-vocabulary
    "$ % '",
    "x " * 60,  # beyond MAX_BATCH_TOKENS → scalar fallback
]

# Mixed pool: taxonomy-known tokens, connectors, OOV junk, unicode,
# punctuation that exercises the fallback routing.
_TOKENS = [
    "iphone",
    "5s",
    "case",
    "cheap",
    "hotels",
    "in",
    "paris",
    "for",
    "best",
    "of",
    "travel",
    "zzqx",
    "glorp",
    "café",
    "wi‑fi",
    "inc.",
    "$",
]

_queries = st.lists(
    st.sampled_from(_TOKENS), min_size=0, max_size=7
).map(" ".join)
_CONNECTORS = ["for", "in", "with", "of"]


@pytest.fixture(scope="module")
def compiled(model):
    return model.compile()


@pytest.fixture(scope="module")
def engine(compiled):
    return VectorizedDetector(compiled)


@pytest.fixture(scope="module")
def snapshot_path(compiled, tmp_path_factory):
    path = tmp_path_factory.mktemp("vsnap") / "model.hdms"
    compiled.save_snapshot(path)
    return path


class TestVectorizedDetectorParity:
    """``VectorizedDetector.detect_batch`` vs per-query ``detect``."""

    def test_engine_engaged(self, compiled):
        assert compiled.vectorized_batch
        assert compiled._vectorized_engine() is not None

    def test_full_eval_set(self, compiled, engine, eval_examples):
        queries = [example.query for example in eval_examples]
        mismatches = [
            query
            for query, batched in zip(queries, engine.detect_batch(queries))
            if batched != compiled.detect(query)
        ]
        assert mismatches == []

    def test_edge_texts_elementwise(self, compiled, engine):
        batch = engine.detect_batch(EDGE_TEXTS)
        assert batch == [compiled.detect(text) for text in EDGE_TEXTS]

    def test_detect_batch_routes_through_engine(self, compiled, eval_examples):
        queries = [example.query for example in eval_examples[:40]]
        assert compiled.detect_batch(queries) == [
            compiled.detect(query) for query in queries
        ]

    def test_small_batch_never_builds_engine(self, model, snapshot_path):
        """Below the cutoff ``detect_batch`` takes the scalar loop without
        building the engine, so a fresh detector's lone request costs
        what ``detect`` costs."""
        for fresh in (model.compile(), load_snapshot(snapshot_path)):
            query = "cheap hotels in rome"
            assert fresh.detect_batch([query]) == [fresh.detect(query)]
            assert fresh._engine is None

    def test_duplicates_share_one_detection(self, engine):
        results = engine.detect_batch(
            ["hotels in paris", "iphone 5s case", "hotels in paris"]
        )
        assert results[0] is results[2]

    @pytest.fixture(scope="class")
    def fragments(self, compiled):
        """Multi-token instances, and logged queries that have a table-B
        row (their flags read drop evidence)."""
        instances = sorted(compiled._segmenter._multi)[::7][:16]
        edges = compiled._constraints.edges
        logged = [edges.queries[i] for i in range(0, len(edges.queries), 97)][:40]
        assert len(instances) >= 8 and len(logged) >= 20
        return instances, logged

    @parity_settings(60)
    @given(data=st.data())
    def test_random_batches_elementwise_identical(self, compiled, engine, fragments, data):
        """The engine itself (``detect_batch`` routes batches under
        ``MIN_VECTORIZED_BATCH`` to the scalar loop) on mixed batches:
        repeated segments, logged queries with drop evidence, OOV tokens
        beside multi-token instances, connectors at either end."""
        instances, logged = fragments
        piece = st.sampled_from(_TOKENS + instances + _CONNECTORS)
        query = st.one_of(
            st.lists(piece, min_size=0, max_size=7).map(" ".join),
            piece.map(lambda text: f"{text} {text}"),
            st.sampled_from(logged),
            st.tuples(st.sampled_from(["zzqx", "glorp"]), st.sampled_from(instances))
            .flatmap(lambda pair: st.permutations(pair))
            .map(" ".join),
            st.tuples(
                st.sampled_from(_CONNECTORS), st.sampled_from(logged + instances)
            ).map(lambda pair: f"{pair[0]} {pair[1]}"),
            st.tuples(
                st.sampled_from(logged + instances), st.sampled_from(_CONNECTORS)
            ).map(" ".join),
            st.sampled_from(EDGE_TEXTS),
        )
        batch = data.draw(st.lists(query, min_size=1, max_size=40))
        assert engine.detect_batch(batch) == [compiled.detect(text) for text in batch]

    def test_speller_detector_is_refused(self, model):
        spelled = model.compile(correct_spelling=True)
        try:
            assert not spelled.vectorized_batch
            with pytest.raises(ModelError, match="speller"):
                VectorizedDetector(spelled)
        finally:
            spelled.close()


class TestConstraintMemoParity:
    """``ConstraintMemo`` (the compiled constraint annotation shared by
    the scalar and batch paths) vs the reference classifier's
    ``annotate``. One detector per fixture serves every example, so a
    memo filled by earlier batches, in either path and in any order,
    must give the same flags as a cold reference detector."""

    @pytest.fixture(scope="class")
    def logged_queries(self, model, detector, train_log):
        """Texts whose flags depend on drop evidence: training-log
        queries where the evidence flips a modifier's flag, the same
        modifiers on other heads (mostly absent from the log, so the
        no-evidence slots), and further log queries with evidence."""
        classifier = model.classifier
        stats = classifier.extractor.stats
        assert stats is not None
        blind = classifier.with_stats(None)
        flipped: list[str] = []
        modifiers: set[str] = set()
        heads: set[str] = set()
        other: list[str] = []
        for record in train_log.records():
            detection = detector.detect(record.query)
            evidenced = [
                modifier
                for modifier in detection.modifiers
                if stats.drop_similarity(detection.query, modifier) is not None
            ]
            flips = [
                modifier
                for modifier in evidenced
                if classifier.is_constraint(detection.query, modifier)
                != blind.is_constraint(detection.query, modifier)
            ]
            if flips:
                flipped.append(record.query)
                modifiers.update(flips)
                heads.add(detection.head)
            elif evidenced and len(other) < 100:
                other.append(record.query)
        assert flipped, "training log has no evidence-dependent flag"
        variants = [f"{m} {h}" for m in sorted(modifiers) for h in sorted(heads)]
        return flipped + variants + other

    @pytest.fixture(scope="class")
    def shared(self, model):
        with model.compile() as compiled:
            yield compiled

    @pytest.fixture(scope="class")
    def tiny(self, model):
        """Memos capped at a few entries: clear-at-cap keeps refilling."""
        with model.compile(config=DetectorConfig(cache_size=4)) as compiled:
            yield compiled

    def test_memo_is_built_for_the_classifier(self, shared):
        assert isinstance(shared._constraints, ConstraintMemo)

    @parity_settings(30)
    @given(data=st.data())
    def test_shuffled_batches_match_reference(
        self, detector, shared, tiny, logged_queries, eval_examples, data
    ):
        heldout = [example.query for example in eval_examples[:120]]
        texts = data.draw(
            st.lists(
                st.one_of(
                    st.sampled_from(logged_queries),
                    st.sampled_from(heldout),
                    _queries,  # recurring modifiers across different heads
                ),
                min_size=32,
                max_size=72,
            )
        )
        expected = [detector.detect(text) for text in texts]
        for compiled in (shared, tiny):
            if data.draw(st.booleans()):
                scalar = [compiled.detect(text) for text in texts]
                batch = compiled.detect_batch(texts)
            else:
                batch = compiled.detect_batch(texts)
                scalar = [compiled.detect(text) for text in reversed(texts)][::-1]
            assert batch == expected
            assert scalar == expected


class TestSegmentationAutomaton:
    """The flat-array automaton vs the span tables it compiled from."""

    def test_matches_every_multi_token_phrase(self, compiled):
        automaton = compiled._automaton
        segmenter = compiled._segmenter
        assert isinstance(automaton, SegmentationAutomaton)
        phrases = sorted(segmenter._multi)[:80]
        assert phrases, "model has no multi-token taxonomy instances"
        for phrase in phrases:
            tokens = phrase.split()
            ids = np.asarray(
                [[automaton.token_ids[token] for token in tokens]]
            )
            scores, states = automaton.match_spans(ids)[len(tokens)]
            assert scores[0, 0] == segmenter._multi[phrase]
            assert states[0, 0] >= 0

    def test_oov_windows_never_match(self, compiled):
        automaton = compiled._automaton
        ids = np.full((2, 5), automaton.oov_id, dtype=np.int64)
        for scores, states in automaton.match_spans(ids).values():
            assert not np.isfinite(scores).any()
            assert (states == -1).all()

    def test_single_token_table_matches_segmenter(self, compiled):
        automaton = compiled._automaton
        single = compiled._segmenter._single
        for token, score in list(single.items())[:100]:
            assert automaton.token_scores[automaton.token_ids[token]] == score

    def test_rebuild_equals_original(self, compiled):
        rebuilt = SegmentationAutomaton.build(compiled._segmenter)
        original = compiled._automaton
        assert rebuilt.tokens == original.tokens
        assert np.array_equal(rebuilt.edge_keys, original.edge_keys)
        assert np.array_equal(rebuilt.edge_targets, original.edge_targets)
        assert np.array_equal(rebuilt.terminal, original.terminal)
        assert rebuilt.max_span == original.max_span

    def test_mismatched_arrays_are_rejected(self, compiled):
        original = compiled._automaton
        with pytest.raises(ModelError, match="token table"):
            SegmentationAutomaton(
                original.tokens,
                original.token_scores,  # has the extra OOV slot → too long
                original.token_kinds[:-1],
                original.edge_keys,
                original.edge_targets,
                original.terminal,
                original.max_span,
            )
        with pytest.raises(ModelError, match="edge arrays"):
            SegmentationAutomaton(
                original.tokens,
                original.token_scores[:-1],
                original.token_kinds[:-1],
                original.edge_keys,
                original.edge_targets[:-1],
                original.terminal,
                original.max_span,
            )


class TestSnapshotAutomaton:
    """Automaton sections round-trip; their absence degrades gracefully."""

    def test_roundtrip_restores_vectorized_batch(self, compiled, snapshot_path):
        loaded = load_snapshot(snapshot_path)
        try:
            assert loaded.vectorized_batch
            original = compiled._automaton
            restored = loaded._automaton
            assert restored.tokens == original.tokens
            assert np.array_equal(restored.token_scores, original.token_scores)
            assert np.array_equal(restored.token_kinds, original.token_kinds)
            assert np.array_equal(restored.edge_keys, original.edge_keys)
            assert np.array_equal(restored.edge_targets, original.edge_targets)
            assert np.array_equal(restored.terminal, original.terminal)
            assert restored.max_span == original.max_span
        finally:
            loaded.close()

    def test_loaded_batch_matches_saved_batch(self, compiled, snapshot_path):
        loaded = load_snapshot(snapshot_path)
        try:
            assert loaded.detect_batch(EDGE_TEXTS) == compiled.detect_batch(
                EDGE_TEXTS
            )
        finally:
            loaded.close()

    def test_snapshot_without_automaton_is_refused(self, snapshot_path, tmp_path):
        """Every writer emits the ``vseg_*`` sections, so a file without
        them is damaged: it fails with a ``ModelError`` naming what is
        missing, never a ``KeyError`` and never a silent scalar
        fallback."""
        stripped = _strip_automaton_sections(snapshot_path, tmp_path)
        with pytest.raises(ModelError, match="vseg_"):
            load_snapshot(stripped)

    def test_corrupted_automaton_section_fails_crc(
        self, snapshot_path, tmp_path
    ):
        """A flipped byte inside ``vseg_edge_keys`` must raise the CRC
        error, not silently fall back to per-query segmentation."""
        from repro.runtime.snapshot import read_snapshot_header

        header = read_snapshot_header(snapshot_path)
        section = header["sections"]["vseg_edge_keys"]
        offset = header["_payload_start"] + section["offset"]
        data = bytearray(snapshot_path.read_bytes())
        data[offset] ^= 0xFF
        bad = tmp_path / "bad.hdms"
        bad.write_bytes(bytes(data))
        with pytest.raises(ModelError, match="CRC"):
            load_snapshot(bad)


class TestPromptRelease:
    """A detector that has built its batch engine is freed by reference
    counting alone, the moment its last reference goes: the engine must
    not form a cycle with it. Run with the cyclic collector off, so only
    reference counting can free anything."""

    @pytest.fixture(scope="class")
    def texts(self, eval_examples):
        texts = list(dict.fromkeys(e.query for e in eval_examples))
        assert len(texts) >= MIN_VECTORIZED_BATCH
        return texts[: 2 * MIN_VECTORIZED_BATCH]

    @staticmethod
    def _freed_on_del(make, texts) -> bool:
        gc.disable()
        try:
            detector = make()
            detector.detect_batch(texts)
            assert detector._engine is not None  # the engine ran
            ref = weakref.ref(detector)
            del detector
            return ref() is None
        finally:
            gc.enable()

    def test_compiled_detector_freed_on_del(self, model, texts):
        assert self._freed_on_del(model.compile, texts)

    def test_snapshot_detector_freed_on_del(self, snapshot_path, texts):
        assert self._freed_on_del(lambda: load_snapshot(snapshot_path), texts)

    def test_engine_outliving_its_detector_refuses(self, model, texts):
        detector = model.compile()
        engine = detector._vectorized_engine()
        del detector
        with pytest.raises(ModelError, match="freed"):
            engine.detect_batch(texts)


def _strip_automaton_sections(snapshot_path, tmp_path):
    """Rewrite a snapshot without its automaton: drop the ``vseg_*``
    section table entries and header keys. The payload bytes (and their
    CRC) are untouched — the orphaned automaton bytes simply become
    unreferenced padding."""
    raw = snapshot_path.read_bytes()
    magic, version, header_len = _PRELUDE.unpack(raw[: _PRELUDE.size])
    header = json.loads(raw[_PRELUDE.size : _PRELUDE.size + header_len])
    payload_start = (
        _PRELUDE.size
        + header_len
        + ((-(_PRELUDE.size + header_len)) % _ALIGN)
    )
    payload = raw[payload_start:]
    del header["has_automaton"]
    del header["vseg_max_span"]
    for name in [n for n in header["sections"] if n.startswith("vseg_")]:
        del header["sections"][name]
    for name in ("vseg_tokens", "vseg_states"):
        header["counts"].pop(name, None)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    prelude = _PRELUDE.pack(magic, version, len(header_bytes))
    pad = (-(len(prelude) + len(header_bytes))) % _ALIGN
    old = tmp_path / "no-automaton.hdms"
    old.write_bytes(prelude + header_bytes + b"\x00" * pad + payload)
    return old
