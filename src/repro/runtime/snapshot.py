"""Zero-copy binary snapshots of the compiled detection runtime.

``CompiledDetector`` construction front-loads all the expensive work —
conceptualizing every taxonomy phrase, flattening the pattern table,
prezipping reading tuples — which makes the detector itself expensive to
ship across process boundaries: pickling it serializes thousands of
small Python objects, and every process that receives it pays the full
deserialization again.

A snapshot is the compiled state laid out flat on disk::

    ┌────────────────────────────────────────────────────────────┐
    │ prelude: magic "HDMSNAP1" · u32 version · u32 header bytes │
    │ header: JSON (config, counts, flags, section table, crc32) │
    │ …padding to 64-byte alignment…                             │
    │ sections: raw little-endian arrays + utf-8 string blobs    │
    └────────────────────────────────────────────────────────────┘

Every numeric structure (interner tables, the stride-indexed pattern
weight matrix, precomputed typicality readings, context-disambiguation
priors, instance-pair supports, taxonomy edges, and the flat-array
segmentation automaton behind the vectorized batch path) is one
contiguous ``int64``/``float64`` section; strings live once in a shared
vocabulary blob and are referenced by id. Every file carries the
``vseg_*`` automaton sections; one without them is refused with a
:class:`~repro.errors.ModelError` naming the missing section.

A load recomputes nothing ``compile()`` derived. Beside the readings
and context bases, the file ships the detector's phrase-id tables
(:class:`~repro.runtime.compiled.PhraseTables`):

- ``phrase_readings`` / ``phrase_bases`` — per entry of ``phrases``,
  its reading id and context-base id, numbered by first occurrence;
- ``vseg_state_phrases`` — per automaton trie state, the phrase id of
  the multi-token phrase it completes (-1 elsewhere);
- ``instance_keys`` / ``instance_values`` — the batch engine's instance
  scores, behind sorted phrase-id pair keys (empty without supports).

:func:`load_snapshot` maps the file with ``mmap`` and builds NumPy views
directly over the mapping (``np.frombuffer``), so the array payload is
never copied — replica processes that load the same snapshot share the
read-only page-cache pages instead of each unpickling a private replica.
The vocabulary is decoded in one pass (then sliced) when it is ASCII,
the taxonomy is rebuilt from its edge table in bulk
(:meth:`~repro.taxonomy.store.ConceptTaxonomy.from_tables`, which checks
each distinct term once for normal form instead of normalizing every
edge), and the batch engine pads its reading matrix from the flat
``reading_*`` sections with array operations.

The lexicon and the classifier's weights are small JSON blobs. With a
constraint classifier, the paper's step 4 ships as the detector's
constraint tables (:class:`~repro.runtime.compiled.ConstraintTables`),
never as the click log:

- ``constraint_vectors`` / ``constraint_decisions`` — table A: per
  entry of ``phrases``, the 13 constraint features with the two drop
  slots as placeholders, and the decision without drop evidence;
- ``drop_queries`` / ``drop_offsets`` / ``drop_spans`` /
  ``drop_similarities`` — table B, when log statistics are bound: each
  logged query with at least one edge, and its edges (removed span,
  click similarity) as CSR rows over the vocabulary;
- ``log_df_terms`` / ``log_df_counts`` — the document frequencies, in
  insertion order, for the IDF of phrases outside table A;

and the header's ``log_stats`` entry holds table B's sizes, the number
of terms and ``num_queries`` (None without bound statistics). Clicks,
click URLs, sessions and gold labels are never written. The file holds
only arrays and JSON, so loading one runs no pickle and executes
nothing from the file; the reader checks every offset, id and length
it indexes with before use.

Floats round-trip bit-exactly (raw IEEE-754 bytes), so a snapshot-loaded
detector is *bit-identical* to the detector it was saved from — enforced
by ``tests/test_runtime_parity.py`` over the held-out evaluation set.

Snapshots are canonical: every section is laid out in an order read off
the detector's own tables, so saving a loaded detector writes the file
it was loaded from, byte for byte.

Format stability: the prelude magic and version gate the whole file; a
wrong magic, unsupported version, truncated payload, or CRC mismatch
raises :class:`~repro.errors.ModelError` with a message naming the file.
Version 3 replaced version 2's click-log sections with the constraint
tables, and version 4 added the phrase-id tables and a canonical
layout, so files of versions 1 to 3 are refused, not converted.
The prelude and :func:`read_snapshot_header` live in the NumPy-free
:mod:`repro.runtime.snapshot_header`, which this module re-exports.
"""

from __future__ import annotations

import json
import mmap
import os
import tempfile
import zlib
from itertools import accumulate
from pathlib import Path

import numpy as np

from repro.core.concept_patterns import ConceptPattern, PatternTable
from repro.core.conceptualizer import Conceptualizer
from repro.core.constraints import ConstraintClassifier, LogisticRegression
from repro.core.detector import DetectorConfig
from repro.core.features import (
    FEATURE_NAMES,
    ConstraintFeatureExtractor,
    DroppabilityTables,
)
from repro.errors import ModelError, TaxonomyError
from repro.mining.pairs import PairCollection
from repro.querylog.stats import DropEdges, TableStatistics
from repro.runtime.automaton import SegmentationAutomaton
from repro.runtime.snapshot_header import (
    _ALIGN,
    _PRELUDE,
    MAGIC,
    SNAPSHOT_VERSION,
    read_snapshot_header,
)
from repro.taxonomy.store import ConceptTaxonomy
from repro.text.lexicon import Lexicon

_I64 = np.dtype("<i8")
_F64 = np.dtype("<f8")

#: Fields of :class:`Lexicon` persisted in the lexicon section.
_LEXICON_FIELDS = (
    "stopwords",
    "connectors",
    "subjective",
    "intent_verbs",
    "adjectives",
    "determiners",
    "prepositions",
    "conjunctions",
    "verbs",
)


class _SectionWriter:
    """Accumulates named sections and their relative offsets."""

    def __init__(self) -> None:
        self.chunks: list[bytes] = []
        self.table: dict[str, dict] = {}
        self._cursor = 0

    def add_bytes(self, name: str, payload: bytes) -> None:
        pad = (-self._cursor) % _ALIGN
        if pad:
            self.chunks.append(b"\x00" * pad)
            self._cursor += pad
        self.table[name] = {"offset": self._cursor, "bytes": len(payload)}
        self.chunks.append(payload)
        self._cursor += len(payload)

    def add_array(self, name: str, values, dtype: np.dtype) -> None:
        array = np.ascontiguousarray(np.asarray(values, dtype=dtype))
        self.add_bytes(name, array.tobytes())
        self.table[name]["dtype"] = dtype.str
        self.table[name]["count"] = int(array.size)

    def payload(self) -> bytes:
        return b"".join(self.chunks)


class _Vocab:
    """String → dense id for the snapshot's shared string pool."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self.strings: list[str] = []

    def id_of(self, string: str) -> int:
        existing = self._ids.get(string)
        if existing is not None:
            return existing
        assigned = len(self.strings)
        self._ids[string] = assigned
        self.strings.append(string)
        return assigned

    def ids_of(self, strings) -> list[int]:
        return [self.id_of(s) for s in strings]


def _write_constraint_tables(
    writer: _SectionWriter, vocab: _Vocab, tables, phrases: list[str]
) -> dict | None:
    """Lay the constraint tables out as sections; return the header's
    ``log_stats`` entry (None when no log statistics are bound).

    Table A is ``constraint_vectors`` (one 13-feature row per entry of
    ``phrases``) and ``constraint_decisions``; table B is the
    ``drop_*`` CSR over vocabulary ids, and the document frequencies
    are ``log_df_*`` in insertion order.
    """
    if tables.phrases != phrases:  # pragma: no cover - compile() invariant
        raise ModelError("snapshot: constraint and reading phrase tables disagree")
    writer.add_array("constraint_vectors", tables.vectors.ravel(), _F64)
    writer.add_array("constraint_decisions", tables.decisions, _I64)
    stats = tables.statistics
    if stats is None:
        return None
    edges = stats.edges
    writer.add_array("drop_queries", vocab.ids_of(edges.queries), _I64)
    writer.add_array("drop_offsets", edges.offsets, _I64)
    writer.add_array("drop_spans", vocab.ids_of(edges.spans), _I64)
    writer.add_array("drop_similarities", edges.similarities, _F64)
    counter = stats.document_frequencies
    writer.add_array("log_df_terms", vocab.ids_of(counter), _I64)
    writer.add_array("log_df_counts", list(counter.values()), _I64)
    return {
        "queries": len(edges.queries),
        "edges": len(edges),
        "terms": len(counter),
        "num_queries": stats.num_queries,
    }


def save_snapshot(detector, path: str | Path, *, lineage: dict | None = None) -> dict:
    """Serialize a :class:`~repro.runtime.compiled.CompiledDetector` to
    ``path`` and return the written header (for logging/inspection).

    ``lineage``, when given, is embedded verbatim as the optional
    ``lineage`` header key (see :mod:`repro.runtime.lineage`); readers
    that predate it ignore unknown header keys, so lineage-bearing
    snapshots stay loadable everywhere.

    The write is atomic (temp file + rename). Raises
    :class:`~repro.errors.ModelError` for detectors the format cannot
    represent (currently: a custom, non-compiled segmenter).

    Unlike ``save_model``, a classifier with live
    :class:`~repro.querylog.stats.LogStatistics` bound *is*
    representable: the detector's constraint tables, taken from those
    statistics at compile time, ride along as flat sections (no pickle),
    so the loaded detector is bit-identical to this one, constraint flags
    included. The click log itself is not written.

    Every section is laid out in an order read off the detector's own
    tables, so saving a loaded detector writes the file it was loaded
    from, byte for byte.
    """
    from repro.runtime.compiled import CompiledSegmenter

    if not isinstance(detector._segmenter, CompiledSegmenter):
        raise ModelError(
            "snapshot requires the compiled segmenter; detectors built with a "
            "custom segmenter cannot be snapshotted"
        )
    classifier = detector._classifier

    vocab = _Vocab()
    writer = _SectionWriter()
    conceptualizer = detector._conceptualizer
    taxonomy = conceptualizer.taxonomy
    matrix = detector._matrix
    interner = detector._interner

    # --- interner + pattern matrix -----------------------------------
    writer.add_array("pattern_concepts", vocab.ids_of(interner), _I64)
    keys = sorted(matrix.raw_map)
    writer.add_array("pattern_keys", keys, _I64)
    writer.add_array("pattern_raw", [matrix.raw_map[k] for k in keys], _F64)
    writer.add_array("pattern_norm", [matrix.norm_map[k] for k in keys], _F64)

    # --- precomputed readings + context priors ------------------------
    readings = detector._compiled_readings
    contexts = detector._compiled_context
    phrases = list(readings)
    if list(contexts) != phrases:  # pragma: no cover - compile() invariant
        raise ModelError("snapshot: reading/context phrase tables disagree")
    writer.add_array("phrases", vocab.ids_of(phrases), _I64)

    reading_offsets, reading_ids, reading_probs = detector._reading_table
    writer.add_array("reading_offsets", reading_offsets, _I64)
    writer.add_array(
        "reading_concepts",
        [vocab.id_of(c) for reading in readings.values() for c, _ in reading.concepts],
        _I64,
    )
    writer.add_array("reading_ids", reading_ids, _I64)
    writer.add_array("reading_probs", reading_probs, _F64)
    context_offsets = [0]
    context_concepts: list[int] = []
    context_scaled: list[int] = []
    context_priors: list[float] = []
    for phrase in phrases:
        for concept, prior, scaled in contexts[phrase].rows:
            context_concepts.append(vocab.id_of(concept))
            context_scaled.append(scaled)
            context_priors.append(prior)
        context_offsets.append(len(context_concepts))
    writer.add_array("context_offsets", context_offsets, _I64)
    writer.add_array("context_concepts", context_concepts, _I64)
    writer.add_array("context_scaled", context_scaled, _I64)
    writer.add_array("context_priors", context_priors, _F64)

    # --- phrase-id tables (CompiledDetector._intern_phrases) -----------
    tables = detector._phrase_tables
    writer.add_array("phrase_readings", tables.reading_of, _I64)
    writer.add_array("phrase_bases", tables.base_of, _I64)

    # --- instance-pair supports and the engine's instance scores ------
    support = detector._support_map or {}
    writer.add_array(
        "support_modifiers", [vocab.id_of(m) for m, _ in support], _I64
    )
    writer.add_array("support_heads", [vocab.id_of(h) for _, h in support], _I64)
    writer.add_array("support_values", list(support.values()), _F64)
    scored = tables.instance_keys is not None
    writer.add_array("instance_keys", tables.instance_keys if scored else (), _I64)
    writer.add_array("instance_values", tables.instance_values if scored else (), _F64)

    # --- taxonomy edges (fallback conceptualization + segmenter) ------
    edge_instances: list[int] = []
    edge_concepts: list[int] = []
    edge_counts: list[float] = []
    for instance, concept, count in taxonomy.iter_edges():
        edge_instances.append(vocab.id_of(instance))
        edge_concepts.append(vocab.id_of(concept))
        edge_counts.append(count)
    writer.add_array("edge_instances", edge_instances, _I64)
    writer.add_array("edge_concepts", edge_concepts, _I64)
    writer.add_array("edge_counts", edge_counts, _F64)
    # Concepts in order of first use by the edges, which is the order a
    # loaded taxonomy holds them in.
    domains = [
        (concept, vocab.id_of(label))
        for concept in dict.fromkeys(edge_concepts)
        if (label := taxonomy.domain_of(vocab.strings[concept]))
    ]
    writer.add_array("domain_concepts", [c for c, _ in domains], _I64)
    writer.add_array("domain_labels", [d for _, d in domains], _I64)

    # --- segmentation automaton (vectorized batch path) ----------------
    # The trailing OOV slot is derived state and is not stored.
    automaton = detector._automaton
    writer.add_array("vseg_tokens", vocab.ids_of(automaton.tokens), _I64)
    writer.add_array("vseg_token_scores", automaton.token_scores[:-1], _F64)
    writer.add_array("vseg_token_kinds", automaton.token_kinds[:-1], _I64)
    writer.add_array("vseg_edge_keys", automaton.edge_keys, _I64)
    writer.add_array("vseg_edge_targets", automaton.edge_targets, _I64)
    writer.add_array("vseg_terminal", automaton.terminal, _F64)
    writer.add_array("vseg_state_phrases", tables.state_phrases, _I64)

    # --- side tables as JSON blobs ------------------------------------
    lexicon = detector._lexicon
    writer.add_bytes(
        "lexicon_json",
        json.dumps(
            {name: sorted(getattr(lexicon, name)) for name in _LEXICON_FIELDS}
        ).encode("utf-8"),
    )
    if classifier is not None:
        droppability = classifier.extractor.droppability
        writer.add_bytes(
            "classifier_json",
            json.dumps(
                {
                    "model": classifier.model.to_dict(),
                    "threshold": classifier.threshold,
                    "concept_droppability": droppability.concept,
                    "instance_droppability": droppability.instance,
                }
            ).encode("utf-8"),
        )
    log_stats = None
    if detector._constraint_tables is not None:
        log_stats = _write_constraint_tables(
            writer, vocab, detector._constraint_tables, phrases
        )

    # --- vocabulary blob (added last: every section interned into it) -
    encoded = [string.encode("utf-8") for string in vocab.strings]
    writer.add_array("vocab_offsets", [0, *accumulate(map(len, encoded))], _I64)
    writer.add_bytes("vocab_blob", b"".join(encoded))

    payload = writer.payload()
    config = detector._config
    header = {
        "format": "hdm-compiled-snapshot",
        "version": SNAPSHOT_VERSION,
        "stride": matrix.stride,
        "dense": matrix.dense,
        "has_pairs": detector._support_map is not None,
        "has_classifier": classifier is not None,
        "log_stats": log_stats,
        "has_speller": detector._speller is not None,
        "has_automaton": True,
        "vseg_max_span": automaton.max_span,
        "conceptualizer": {
            "smoothing": conceptualizer._scorer._smoothing,
            "max_backoff_tokens": conceptualizer._max_backoff_tokens,
            "self_concept_weight": conceptualizer._self_concept_weight,
        },
        "detector_config": {
            "top_k_concepts": config.top_k_concepts,
            "instance_weight": config.instance_weight,
            "instance_smoothing": config.instance_smoothing,
            "min_evidence": config.min_evidence,
            "use_connector_heuristic": config.use_connector_heuristic,
            "contextualize_modifiers": config.contextualize_modifiers,
            "hierarchy_discount": config.hierarchy_discount,
            "cache_size": config.cache_size,
        },
        "counts": {
            "vocab": len(vocab.strings),
            "patterns": len(keys),
            "phrases": len(phrases),
            "support": len(support),
            "edges": len(edge_counts),
            "vseg_tokens": len(automaton.tokens),
            "vseg_states": int(len(automaton.terminal)),
        },
        "payload_bytes": len(payload),
        "payload_crc32": zlib.crc32(payload),
        "sections": writer.table,
    }
    if lineage is not None:
        header["lineage"] = dict(lineage)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    prelude = _PRELUDE.pack(MAGIC, SNAPSHOT_VERSION, len(header_bytes))
    pad = (-(len(prelude) + len(header_bytes))) % _ALIGN

    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(prelude)
            out.write(header_bytes)
            out.write(b"\x00" * pad)
            out.write(payload)
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)
    return header


def _corrupted(path: Path, name: str, problem: str) -> ModelError:
    return ModelError(f"{path}: corrupted snapshot section {name} ({problem})")


class _Sections:
    """A mapped snapshot's sections, each checked before use.

    Every accessor raises :class:`~repro.errors.ModelError` naming the
    file and the section rather than letting a malformed file fail with
    an ``IndexError`` halfway through a load.
    """

    def __init__(self, path: Path) -> None:
        header = read_snapshot_header(path)
        self.start = header.pop("_payload_start")
        expected = self.start + header["payload_bytes"]
        actual = path.stat().st_size
        if actual < expected:
            raise ModelError(
                f"{path}: truncated snapshot ({actual} bytes, expected {expected})"
            )
        with open(path, "rb") as handle:
            # The mapping must outlive the load: the numpy views built
            # over it alias its pages, so it is released by GC when the
            # last view dies, never by an eager close here.
            self.mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        crc = zlib.crc32(memoryview(self.mapped)[self.start : expected])
        if crc != header["payload_crc32"]:
            raise ModelError(f"{path}: corrupted snapshot (payload CRC mismatch)")
        self.path = path
        self.header = header

    def entry(self, name: str) -> dict:
        entry = self.header["sections"].get(name)
        if entry is None:
            raise ModelError(f"{self.path}: corrupted snapshot (no section {name})")
        if entry["offset"] + entry["bytes"] > self.header["payload_bytes"]:
            raise _corrupted(self.path, name, "past the payload")
        return entry

    def array(self, name: str, count: int | None = None, of: str = "") -> np.ndarray:
        """The section as a read-only array view of the mapping; with a
        ``count``, it must hold that many entries (``of`` what)."""
        entry = self.entry(name)
        dtype = np.dtype(entry["dtype"])
        if entry["count"] * dtype.itemsize > entry["bytes"]:
            raise _corrupted(self.path, name, "count past its bytes")
        if count is not None and entry["count"] != count:
            problem = f"{entry['count']} entries for {count} {of}"
            raise _corrupted(self.path, name, problem)
        return np.frombuffer(
            self.mapped,
            dtype=dtype,
            count=entry["count"],
            offset=self.start + entry["offset"],
        )

    def raw_bytes(self, name: str) -> bytes:
        entry = self.entry(name)
        start = self.start + entry["offset"]
        return bytes(memoryview(self.mapped)[start : start + entry["bytes"]])

    def ids(
        self,
        name: str,
        bound: int,
        count: int | None = None,
        of: str = "",
        *,
        what: str = "vocab",
        low: int = 0,
    ) -> np.ndarray:
        """:meth:`array`, whose every entry must be in ``low..bound - 1``."""
        values = self.array(name, count, of)
        if values.size and (int(values.min()) < low or int(values.max()) >= bound):
            problem = f"{what} id out of range {low}..{bound - 1}"
            raise _corrupted(self.path, name, problem)
        return values

    def offsets(self, name: str, rows: int, total: int) -> list[int]:
        """CSR offsets of ``rows`` rows over ``total`` entries."""
        values = self.array(name)
        if (
            len(values) != rows + 1
            or values[0] != 0
            or values[-1] != total
            or bool(np.any(np.diff(values) < 0))
        ):
            raise _corrupted(
                self.path, name, f"need {rows + 1} offsets rising from 0 to {total}"
            )
        return values.tolist()

    def strings(self, name: str, vocab: list[str]) -> list[str]:
        return list(map(vocab.__getitem__, self.ids(name, len(vocab)).tolist()))

    def vocabulary(self) -> list[str]:
        """The shared string table: one decode and one slice per string
        when the blob is ASCII, one decode per string otherwise."""
        blob = self.raw_bytes("vocab_blob")
        count = self.header["counts"]["vocab"]
        bounds = self.offsets("vocab_offsets", count, len(blob))
        if blob.isascii():
            text = blob.decode("ascii")
            return [text[start:end] for start, end in zip(bounds, bounds[1:])]
        try:
            return [blob[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:])]
        except UnicodeDecodeError as exc:
            raise ModelError(
                f"{self.path}: corrupted snapshot vocabulary ({exc})"
            ) from exc

    def group_ids(self, name: str, count: int) -> np.ndarray:
        """A ``phrase_readings``-style section: ``count`` ids numbered in
        order of first occurrence (each at most one past all before)."""
        values = self.ids(name, count, count, "phrases", what="group")
        seen = np.maximum.accumulate(values[:-1])
        if count and (values[0] != 0 or bool(np.any(values[1:] > seen + 1))):
            raise _corrupted(self.path, name, "ids not numbered by first occurrence")
        return values


def _read_constraint_tables(
    sections: _Sections, vocab: list[str], phrases: list[str]
) -> tuple[np.ndarray, list[bool], TableStatistics | None]:
    """Table A's vectors and decisions, and the table statistics (None
    without a ``log_stats`` entry), as :func:`_write_constraint_tables`
    laid them out."""
    width = len(FEATURE_NAMES)
    vectors = sections.array(
        "constraint_vectors", len(phrases) * width, f"in {len(phrases)} phrases"
    ).reshape(len(phrases), width)
    decisions = sections.array("constraint_decisions", len(phrases), "phrases")
    if bool(np.any((decisions != 0) & (decisions != 1))):
        raise _corrupted(
            sections.path, "constraint_decisions", "decision must be 0 or 1"
        )
    meta = sections.header.get("log_stats")
    if meta is None:
        return vectors, (decisions == 1).tolist(), None

    queries = sections.strings("drop_queries", vocab)
    spans = sections.strings("drop_spans", vocab)
    similarities = sections.array("drop_similarities", len(spans), "in drop_spans")
    offsets = sections.offsets("drop_offsets", len(queries), len(spans))
    terms = sections.strings("log_df_terms", vocab)
    counts = sections.array("log_df_counts", len(terms), "in log_df_terms").tolist()
    if counts and min(counts) <= 0:
        raise _corrupted(
            sections.path, "log_df_counts", "document frequency must be positive"
        )
    edges = DropEdges(queries, offsets, spans, similarities.tolist())
    statistics = TableStatistics(edges, dict(zip(terms, counts)), meta["num_queries"])
    return vectors, (decisions == 1).tolist(), statistics


def load_snapshot(path: str | Path):
    """Reconstruct a :class:`~repro.runtime.compiled.CompiledDetector`
    from a file written by :func:`save_snapshot`.

    The array payload is ``mmap``-ed read-only and exposed as NumPy views
    without copying; concurrent loaders of the same file share pages.
    The payload CRC is checked on every load, so a corrupt file fails
    here with :class:`~repro.errors.ModelError`. Nothing ``compile()``
    derived is derived again: the taxonomy is restored from its edge
    table in bulk, and the readings, context bases and phrase-id tables
    come from their sections.
    """
    from repro.runtime.compiled import (
        CompiledDetector,
        ConstraintTables,
        PatternMatrix,
        PhraseReading,
        PhraseTables,
        _ContextBase,
    )
    from repro.runtime.intern import Interner

    path = Path(path)
    sections = _Sections(path)
    header = sections.header
    vocab = sections.vocabulary()
    size = len(vocab)

    # --- taxonomy + conceptualizer ------------------------------------
    instances = sections.ids("edge_instances", size).tolist()
    edges = (len(instances), "in edge_instances")
    labelled = sections.ids("domain_concepts", size).tolist()
    labels = (len(labelled), "in domain_concepts")
    try:
        taxonomy = ConceptTaxonomy.from_tables(
            vocab,
            instances,
            sections.ids("edge_concepts", size, *edges).tolist(),
            sections.array("edge_counts", *edges).tolist(),
            dict(zip(labelled, sections.ids("domain_labels", size, *labels).tolist())),
        )
    except TaxonomyError as exc:
        # from_tables names the argument at fault: the section's suffix.
        field, _, problem = str(exc).partition(": ")
        raise _corrupted(path, f"edge_{field}", problem) from exc
    params = header["conceptualizer"]
    conceptualizer = Conceptualizer(
        taxonomy,
        smoothing=params["smoothing"],
        max_backoff_tokens=params["max_backoff_tokens"],
        self_concept_weight=params["self_concept_weight"],
    )

    # --- interner + pattern matrix + pattern table --------------------
    interner = Interner(sections.strings("pattern_concepts", vocab))
    stride = header["stride"]
    matrix = PatternMatrix.from_arrays(
        sections.array("pattern_keys"),
        sections.array("pattern_raw"),
        sections.array("pattern_norm"),
        stride=stride,
        dense=header["dense"],
    )
    patterns = PatternTable(
        {
            ConceptPattern(interner.string_of(key // stride), interner.string_of(key % stride)): weight
            for key, weight in matrix.raw_map.items()
        }
    )

    # --- readings + context bases -------------------------------------
    phrases = sections.strings("phrases", vocab)
    known = set(phrases)
    if len(known) != len(phrases):
        raise _corrupted(path, "phrases", "a phrase appears twice")
    reading_concepts = sections.strings("reading_concepts", vocab)
    total = (len(reading_concepts), "in reading_concepts")
    reading_offsets = sections.array("reading_offsets")
    bounds = sections.offsets("reading_offsets", len(phrases), total[0])
    reading_ids = sections.ids("reading_ids", stride, *total, what="concept")
    reading_probs = sections.array("reading_probs", *total)
    readings = PhraseReading.table(
        phrases, reading_concepts, bounds, reading_ids, reading_probs, stride
    )
    context_concepts = sections.strings("context_concepts", vocab)
    total = (len(context_concepts), "in context_concepts")
    bounds = sections.offsets("context_offsets", len(phrases), total[0])
    scaled = sections.array("context_scaled", *total).tolist()
    priors = sections.array("context_priors", *total).tolist()
    contexts = {
        phrase: _ContextBase(
            list(zip(context_concepts[a:b], priors[a:b])),
            list(zip(context_concepts[a:b], priors[a:b], scaled[a:b])),
        )
        for phrase, a, b in zip(phrases, bounds, bounds[1:])
    }

    # --- supports, lexicon, classifier, speller -----------------------
    pairs = None
    if header["has_pairs"]:
        mods = sections.strings("support_modifiers", vocab)
        heads = sections.strings("support_heads", vocab)
        values = sections.array("support_values", len(mods), "in support_modifiers")
        pairs = PairCollection.from_support(
            dict(zip(zip(mods, heads), values.tolist()))
        )

    lexicon_data = json.loads(sections.raw_bytes("lexicon_json").decode("utf-8"))
    lexicon = Lexicon(
        **{name: frozenset(lexicon_data[name]) for name in _LEXICON_FIELDS}
    )

    classifier = None
    constraint_tables = None
    if header["has_classifier"]:
        payload = json.loads(sections.raw_bytes("classifier_json").decode("utf-8"))
        vectors, decisions, stats = _read_constraint_tables(sections, vocab, phrases)
        extractor = ConstraintFeatureExtractor(
            conceptualizer,
            stats=stats,
            droppability=DroppabilityTables(
                concept=payload["concept_droppability"],
                instance=payload["instance_droppability"],
            ),
            lexicon=lexicon,
        )
        classifier = ConstraintClassifier(
            extractor,
            LogisticRegression.from_dict(payload["model"]),
            threshold=payload["threshold"],
        )
        constraint_tables = ConstraintTables(extractor, phrases, vectors, decisions)

    speller = None
    if header["has_speller"]:
        from repro.text.spelling import SpellingNormalizer

        speller = SpellingNormalizer.from_taxonomy(taxonomy)

    # --- segmentation automaton + phrase-id tables --------------------
    if "vseg_max_span" not in header:
        raise ModelError(f"{path}: corrupted snapshot (no header key vseg_max_span)")
    tokens = sections.strings("vseg_tokens", vocab)
    automaton = SegmentationAutomaton(
        tokens,
        sections.array("vseg_token_scores"),
        sections.array("vseg_token_kinds"),
        sections.array("vseg_edge_keys"),
        sections.array("vseg_edge_targets"),
        sections.array("vseg_terminal"),
        header["vseg_max_span"],
    )
    ids = len(phrases) + sum(token not in known for token in dict.fromkeys(tokens))
    instance_keys = instance_values = None
    if pairs is not None and pairs.support_map():
        instance_keys = sections.ids("instance_keys", ids * ids, what="phrase pair")
        if bool(np.any(np.diff(instance_keys) <= 0)):
            raise _corrupted(path, "instance_keys", "keys not rising")
        instance_values = sections.array(
            "instance_values", len(instance_keys), "in instance_keys"
        )
    states = sections.ids(
        "vseg_state_phrases",
        ids,
        len(automaton.terminal),
        "trie states",
        what="phrase",
        low=-1,
    )
    phrase_tables = PhraseTables(
        sections.group_ids("phrase_readings", len(phrases)),
        sections.group_ids("phrase_bases", len(phrases)),
        states,
        instance_keys,
        instance_values,
    )

    return CompiledDetector._restore(
        patterns=patterns,
        conceptualizer=conceptualizer,
        instance_pairs=pairs,
        constraint_classifier=classifier,
        lexicon=lexicon,
        config=DetectorConfig(**header["detector_config"]),
        speller=speller,
        interner=interner,
        matrix=matrix,
        readings=readings,
        reading_table=(reading_offsets, reading_ids, reading_probs),
        context_bases=contexts,
        constraint_tables=constraint_tables,
        automaton=automaton,
        phrase_tables=phrase_tables,
        snapshot_path=str(path),
    )
