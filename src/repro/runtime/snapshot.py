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
:func:`load_snapshot` maps the file with ``mmap`` and builds NumPy views
directly over the mapping (``np.frombuffer``), so the array payload is
never copied — replica processes that load the same snapshot share the
read-only page-cache pages instead of each unpickling a private replica,
and cold-start cost is decoding the vocabulary strings plus dict
construction.

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
nothing from the file; the reader bounds-checks every offset and
vocabulary id of these sections.

Floats round-trip bit-exactly (raw IEEE-754 bytes), so a snapshot-loaded
detector is *bit-identical* to the detector it was saved from — enforced
by ``tests/test_runtime_parity.py`` over the held-out evaluation set.

Format stability: the prelude magic and version gate the whole file; a
wrong magic, unsupported version, truncated payload, or CRC mismatch
raises :class:`~repro.errors.ModelError` with a message naming the file.
Version 3 replaced version 2's click-log sections with the constraint
tables, so files of versions 1 and 2 are refused, not converted.
The prelude and :func:`read_snapshot_header` live in the NumPy-free
:mod:`repro.runtime.snapshot_header`, which this module re-exports.
"""

from __future__ import annotations

import json
import mmap
import os
import tempfile
import zlib
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
from repro.errors import ModelError
from repro.mining.pairs import PairCollection
from repro.querylog.stats import DropEdges, TableStatistics
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

    reading_offsets = [0]
    reading_concepts: list[int] = []
    reading_ids: list[int] = []
    reading_probs: list[float] = []
    context_offsets = [0]
    context_concepts: list[int] = []
    context_scaled: list[int] = []
    context_priors: list[float] = []
    for phrase in phrases:
        reading = readings[phrase]
        for (concept, probability), id_ in zip(reading.concepts, reading.ids.tolist()):
            reading_concepts.append(vocab.id_of(concept))
            reading_ids.append(id_)
            reading_probs.append(probability)
        reading_offsets.append(len(reading_concepts))
        for (concept, prior), (_, _, scaled) in zip(
            contexts[phrase].items, contexts[phrase].rows
        ):
            context_concepts.append(vocab.id_of(concept))
            context_scaled.append(scaled)
            context_priors.append(prior)
        context_offsets.append(len(context_concepts))
    writer.add_array("reading_offsets", reading_offsets, _I64)
    writer.add_array("reading_concepts", reading_concepts, _I64)
    writer.add_array("reading_ids", reading_ids, _I64)
    writer.add_array("reading_probs", reading_probs, _F64)
    writer.add_array("context_offsets", context_offsets, _I64)
    writer.add_array("context_concepts", context_concepts, _I64)
    writer.add_array("context_scaled", context_scaled, _I64)
    writer.add_array("context_priors", context_priors, _F64)

    # --- instance-pair supports ---------------------------------------
    support = detector._support_map or {}
    writer.add_array(
        "support_modifiers", [vocab.id_of(m) for m, _ in support], _I64
    )
    writer.add_array("support_heads", [vocab.id_of(h) for _, h in support], _I64)
    writer.add_array("support_values", list(support.values()), _F64)

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
    domains = [
        (vocab.id_of(c), vocab.id_of(taxonomy.domain_of(c)))
        for c in taxonomy.iter_concepts()
        if taxonomy.domain_of(c)
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
    blob = "".join(vocab.strings).encode("utf-8")
    offsets = [0]
    for string in vocab.strings:
        offsets.append(offsets[-1] + len(string.encode("utf-8")))
    writer.add_array("vocab_offsets", offsets, _I64)
    writer.add_bytes("vocab_blob", blob)

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


def _read_constraint_tables(
    path: Path, header: dict, array, vocab: list[str], phrases: list[str]
) -> tuple[np.ndarray, list[bool], TableStatistics | None]:
    """Table A's vectors and decisions, and the table statistics (None
    without a ``log_stats`` entry), as :func:`_write_constraint_tables`
    laid them out.

    Every id, length and offset is checked before use, so a malformed
    file raises :class:`~repro.errors.ModelError` naming the file and
    the section rather than an ``IndexError`` halfway through.
    """

    def strings(name: str) -> list[str]:
        ids = array(name)
        if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= len(vocab)):
            raise _corrupted(path, name, f"vocab id out of range 0..{len(vocab) - 1}")
        return [vocab[i] for i in ids.tolist()]

    def values_for(count: int, what: str, name: str) -> np.ndarray:
        values = array(name)
        if len(values) != count:
            raise _corrupted(path, name, f"{len(values)} entries for {count} {what}")
        return values

    width = len(FEATURE_NAMES)
    vectors = values_for(
        len(phrases) * width, f"in {len(phrases)} phrases", "constraint_vectors"
    ).reshape(len(phrases), width)
    decisions = values_for(len(phrases), "phrases", "constraint_decisions")
    if bool(np.any((decisions != 0) & (decisions != 1))):
        raise _corrupted(path, "constraint_decisions", "decision must be 0 or 1")
    meta = header.get("log_stats")
    if meta is None:
        return vectors, (decisions == 1).tolist(), None

    queries = strings("drop_queries")
    spans = strings("drop_spans")
    similarities = values_for(len(spans), "in drop_spans", "drop_similarities")
    offsets = array("drop_offsets")
    if (
        len(offsets) != len(queries) + 1
        or offsets[0] != 0
        or offsets[-1] != len(spans)
        or bool(np.any(np.diff(offsets) < 0))
    ):
        raise _corrupted(
            path,
            "drop_offsets",
            f"need {len(queries) + 1} offsets rising from 0 to {len(spans)}",
        )
    terms = strings("log_df_terms")
    counts = values_for(len(terms), "in log_df_terms", "log_df_counts").tolist()
    if counts and min(counts) <= 0:
        raise _corrupted(path, "log_df_counts", "document frequency must be positive")
    edges = DropEdges(queries, offsets.tolist(), spans, similarities.tolist())
    statistics = TableStatistics(edges, dict(zip(terms, counts)), meta["num_queries"])
    return vectors, (decisions == 1).tolist(), statistics


def load_snapshot(path: str | Path):
    """Reconstruct a :class:`~repro.runtime.compiled.CompiledDetector`
    from a file written by :func:`save_snapshot`.

    The array payload is ``mmap``-ed read-only and exposed as NumPy views
    without copying; concurrent loaders of the same file share pages.
    The payload CRC is checked on every load, so a corrupt file fails
    here with :class:`~repro.errors.ModelError`.
    """
    from repro.runtime.compiled import CompiledDetector

    path = Path(path)
    header = read_snapshot_header(path)
    payload_start = header.pop("_payload_start")
    expected = payload_start + header["payload_bytes"]
    actual = path.stat().st_size
    if actual < expected:
        raise ModelError(
            f"{path}: truncated snapshot ({actual} bytes, expected {expected})"
        )

    with open(path, "rb") as handle:
        # The mapping must outlive this function: the numpy views built
        # below alias its pages, so it is released by GC when the last
        # view dies, never by an eager close here.
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    crc = zlib.crc32(
        memoryview(mapped)[payload_start : payload_start + header["payload_bytes"]]
    )
    if crc != header["payload_crc32"]:
        raise ModelError(f"{path}: corrupted snapshot (payload CRC mismatch)")

    sections = header["sections"]

    def section(name: str) -> dict:
        entry = sections.get(name)
        if entry is None:
            raise ModelError(f"{path}: corrupted snapshot (no section {name})")
        if entry["offset"] + entry["bytes"] > header["payload_bytes"]:
            raise ModelError(
                f"{path}: corrupted snapshot section {name} (past the payload)"
            )
        return entry

    def array(name: str) -> np.ndarray:
        entry = section(name)
        dtype = np.dtype(entry["dtype"])
        if entry["count"] * dtype.itemsize > entry["bytes"]:
            raise ModelError(
                f"{path}: corrupted snapshot section {name} (count past its bytes)"
            )
        return np.frombuffer(
            mapped,
            dtype=dtype,
            count=entry["count"],
            offset=payload_start + entry["offset"],
        )

    def raw_bytes(name: str) -> bytes:
        entry = section(name)
        start = payload_start + entry["offset"]
        return bytes(memoryview(mapped)[start : start + entry["bytes"]])

    # --- vocabulary ----------------------------------------------------
    blob = raw_bytes("vocab_blob")
    offsets = array("vocab_offsets").tolist()
    try:
        vocab = [
            blob[offsets[i] : offsets[i + 1]].decode("utf-8")
            for i in range(len(offsets) - 1)
        ]
    except UnicodeDecodeError as exc:
        raise ModelError(f"{path}: corrupted snapshot vocabulary ({exc})") from exc

    # --- taxonomy + conceptualizer ------------------------------------
    domain_of = dict(
        zip(array("domain_concepts").tolist(), array("domain_labels").tolist())
    )
    taxonomy = ConceptTaxonomy()
    for instance, concept, count in zip(
        array("edge_instances").tolist(),
        array("edge_concepts").tolist(),
        array("edge_counts").tolist(),
    ):
        label = domain_of.get(concept)
        taxonomy.add_edge(
            vocab[instance],
            vocab[concept],
            count,
            domain=vocab[label] if label is not None else None,
        )
    params = header["conceptualizer"]
    conceptualizer = Conceptualizer(
        taxonomy,
        smoothing=params["smoothing"],
        max_backoff_tokens=params["max_backoff_tokens"],
        self_concept_weight=params["self_concept_weight"],
    )

    # --- interner + pattern matrix + pattern table --------------------
    from repro.runtime.compiled import PatternMatrix
    from repro.runtime.intern import Interner

    interner = Interner(vocab[i] for i in array("pattern_concepts").tolist())
    stride = header["stride"]
    matrix = PatternMatrix.from_arrays(
        array("pattern_keys"),
        array("pattern_raw"),
        array("pattern_norm"),
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
    from repro.runtime.compiled import ConstraintTables, PhraseReading, _ContextBase

    phrases = [vocab[i] for i in array("phrases").tolist()]
    reading_offsets = array("reading_offsets").tolist()
    reading_concepts = array("reading_concepts").tolist()
    reading_ids = array("reading_ids")
    reading_probs = array("reading_probs")
    prob_list = reading_probs.tolist()
    context_offsets = array("context_offsets").tolist()
    context_concepts = array("context_concepts").tolist()
    context_scaled = array("context_scaled").tolist()
    context_priors = array("context_priors").tolist()

    readings: dict[str, PhraseReading] = {}
    contexts: dict[str, _ContextBase] = {}
    for index, phrase in enumerate(phrases):
        start, end = reading_offsets[index], reading_offsets[index + 1]
        concepts = tuple(
            (vocab[reading_concepts[i]], prob_list[i]) for i in range(start, end)
        )
        readings[phrase] = PhraseReading(
            concepts, reading_ids[start:end], reading_probs[start:end], stride
        )
        start, end = context_offsets[index], context_offsets[index + 1]
        items = [
            (vocab[context_concepts[i]], context_priors[i]) for i in range(start, end)
        ]
        rows = [
            (concept, prior, context_scaled[i])
            for (concept, prior), i in zip(items, range(start, end))
        ]
        contexts[phrase] = _ContextBase(items, rows)

    # --- supports, lexicon, classifier, speller -----------------------
    pairs = None
    if header["has_pairs"]:
        mods = array("support_modifiers").tolist()
        heads = array("support_heads").tolist()
        values = array("support_values").tolist()
        pairs = PairCollection.from_support(
            {(vocab[m], vocab[h]): v for m, h, v in zip(mods, heads, values)}
        )

    lexicon_data = json.loads(raw_bytes("lexicon_json").decode("utf-8"))
    lexicon = Lexicon(
        **{name: frozenset(lexicon_data[name]) for name in _LEXICON_FIELDS}
    )

    classifier = None
    constraint_tables = None
    if header["has_classifier"]:
        payload = json.loads(raw_bytes("classifier_json").decode("utf-8"))
        vectors, decisions, stats = _read_constraint_tables(
            path, header, array, vocab, phrases
        )
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

    # --- segmentation automaton ---------------------------------------
    from repro.runtime.vectorized import SegmentationAutomaton

    if "vseg_max_span" not in header:
        raise ModelError(f"{path}: corrupted snapshot (no header key vseg_max_span)")
    automaton = SegmentationAutomaton(
        [vocab[i] for i in array("vseg_tokens").tolist()],
        array("vseg_token_scores"),
        array("vseg_token_kinds"),
        array("vseg_edge_keys"),
        array("vseg_edge_targets"),
        array("vseg_terminal"),
        header["vseg_max_span"],
    )

    config = DetectorConfig(**header["detector_config"])
    return CompiledDetector._restore(
        patterns=patterns,
        conceptualizer=conceptualizer,
        instance_pairs=pairs,
        constraint_classifier=classifier,
        lexicon=lexicon,
        config=config,
        speller=speller,
        interner=interner,
        matrix=matrix,
        readings=readings,
        context_bases=contexts,
        constraint_tables=constraint_tables,
        snapshot_path=str(path),
        automaton=automaton,
    )
