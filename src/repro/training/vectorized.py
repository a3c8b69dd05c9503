"""Batched-numpy training stages, bit-identical to the reference loops.

The reference derivation and droppability passes are per-pair / per-row
Python loops over dict accumulators. Here each pass is restated as array
work over interned concept ids (:class:`repro.runtime.intern.Interner`,
the same move the compiled serving runtime makes):

1. conceptualize each *distinct* phrase once (``conceptualize_many``),
   flatten the readings into id/probability arrays with slice offsets;
2. expand the per-item contribution stream with ``repeat`` + a ragged
   ``arange`` so contributions appear in exactly the reference's
   iteration order;
3. reduce with ``np.bincount``, which adds elements sequentially — the
   same float additions, in the same order, as the reference's
   ``dict.get(k, 0.0) + w`` accumulation, so sums are bit-identical,
   not merely close;
4. rebuild the output dicts in first-seen key order (``np.unique`` over
   the stream plus an argsort of first occurrence), matching the
   insertion order of the reference dicts.

Step 4 matters beyond aesthetics: ``PatternTable.pruned_to_mass`` sums
``total_weight`` in insertion order, so reproducing the order reproduces
the prune boundary exactly.

Both fast builds are put together here from one per-record kernel
(:func:`mine_records`) and one model assembly (:func:`assemble_model`):
:func:`train_model_vectorized` runs the kernel over a whole log, while
:class:`~repro.training.incremental.IncrementalTrainer` runs it one
record at a time through a probe-recording view and keeps the output.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.concept_patterns import ConceptPattern, PatternTable
from repro.core.constraints import ConstraintClassifier, LogisticRegression
from repro.core.conceptualizer import Conceptualizer
from repro.core.features import (
    FEATURE_NAMES,
    ConstraintFeatureExtractor,
    DroppabilityTables,
)
from repro.core.model import HdmModel
from repro.core.pipeline import TrainingConfig, _stage_recorder
from repro.mining.pairs import MinedPair, PairCollection, default_miners
from repro.querylog.models import QueryLog, QueryRecord
from repro.querylog.stats import LogStatistics, SimilarityCache
from repro.runtime.intern import Interner
from repro.taxonomy.store import ConceptTaxonomy
from repro.training.evidence import DropEvidence, record_drop_evidence

#: Feature slots that move with the log; the rest of a training vector
#: is a pure function of the taxonomy and lexicon.
_DROP_SIMILARITY_SLOT = FEATURE_NAMES.index("drop_similarity")
_DROP_MISSING_SLOT = FEATURE_NAMES.index("drop_evidence_missing")
_INSTANCE_DROP_SLOT = FEATURE_NAMES.index("instance_droppability")
_CONCEPT_DROP_SLOT = FEATURE_NAMES.index("concept_droppability")
_IDF_SLOT = FEATURE_NAMES.index("idf")


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``[0..c0), [0..c1), ...`` concatenated (the within-group index)."""
    if len(counts) == 0 or counts.sum() == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.arange(ends[-1], dtype=np.int64) - np.repeat(ends - counts, counts)


class _ReadingArrays:
    """Flattened concept readings of a distinct-phrase list.

    ``starts[i]:starts[i] + lengths[i]`` slices the id/probability arrays
    for phrase ``i``; ids index ``interner``.
    """

    __slots__ = ("interner", "ids", "probs", "starts", "lengths")

    def __init__(
        self,
        phrases: list[str],
        readings: list[list[tuple[str, float]]],
    ) -> None:
        self.interner = Interner()
        flat_ids: list[int] = []
        flat_probs: list[float] = []
        starts = np.empty(len(phrases) + 1, dtype=np.int64)
        position = 0
        for index, phrase_readings in enumerate(readings):
            starts[index] = position
            for concept, prob in phrase_readings:
                flat_ids.append(self.interner.intern(concept))
                flat_probs.append(prob)
                position += 1
        starts[len(phrases)] = position
        self.ids = np.asarray(flat_ids, dtype=np.int64)
        self.probs = np.asarray(flat_probs, dtype=np.float64)
        self.starts = starts[:-1]
        self.lengths = np.diff(starts)


def _first_seen_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique keys in first-occurrence order plus the inverse mapping.

    ``np.unique`` sorts; re-ordering by each key's first index restores
    the order a sequential dict would have inserted them in.
    """
    unique, first_index, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    order = np.argsort(first_index, kind="stable")
    rank_of_sorted = np.empty(len(unique), dtype=np.int64)
    rank_of_sorted[order] = np.arange(len(unique), dtype=np.int64)
    return unique[order], rank_of_sorted[inverse]


def derive_pattern_table_vectorized(
    pairs: PairCollection,
    conceptualizer: Conceptualizer,
    top_k_concepts: int = 5,
    hierarchy_discount: float = 0.0,
) -> PatternTable:
    """Vectorized :func:`repro.core.concept_patterns.derive_pattern_table`."""
    triples = list(pairs.items())
    if not triples:
        return PatternTable()

    phrase_ids = Interner()
    modifiers = np.empty(len(triples), dtype=np.int64)
    heads = np.empty(len(triples), dtype=np.int64)
    support = np.empty(len(triples), dtype=np.float64)
    for index, (modifier, head, pair_support) in enumerate(triples):
        modifiers[index] = phrase_ids.intern(modifier)
        heads[index] = phrase_ids.intern(head)
        support[index] = pair_support

    phrases = list(phrase_ids)
    readings = conceptualizer.conceptualize_many(phrases, top_k_concepts)
    if hierarchy_discount > 0:
        readings = [
            conceptualizer.expand_with_ancestors(r, hierarchy_discount) if r else r
            for r in readings
        ]
    arrays = _ReadingArrays(phrases, readings)

    # The reference walks, per pair, modifier readings outer and head
    # readings inner. repeat + ragged arange reproduces that exact row
    # stream: row r of pair p is (m_reading r // H_p, h_reading r % H_p).
    m_counts = arrays.lengths[modifiers]
    h_counts = arrays.lengths[heads]
    rows_per_pair = m_counts * h_counts
    pair_of_row = np.repeat(np.arange(len(triples), dtype=np.int64), rows_per_pair)
    row_in_pair = _ragged_arange(rows_per_pair)
    if len(pair_of_row) == 0:
        return PatternTable()
    h_count_of_row = h_counts[pair_of_row]
    m_slot = arrays.starts[modifiers][pair_of_row] + row_in_pair // h_count_of_row
    h_slot = arrays.starts[heads][pair_of_row] + row_in_pair % h_count_of_row
    m_concept = arrays.ids[m_slot]
    h_concept = arrays.ids[h_slot]
    # Same association order as the reference: (support * m_prob) * h_prob.
    weights = (support[pair_of_row] * arrays.probs[m_slot]) * arrays.probs[h_slot]

    keep = (m_concept != h_concept) & (weights > 0)
    stride = np.int64(len(arrays.interner))
    keys = m_concept[keep] * stride + h_concept[keep]
    weights = weights[keep]
    if len(keys) == 0:
        return PatternTable()

    unique_keys, slot_of_row = _first_seen_order(keys)
    sums = np.bincount(slot_of_row, weights=weights, minlength=len(unique_keys))
    table_weights: dict[ConceptPattern, float] = {}
    for key, weight in zip(unique_keys.tolist(), sums.tolist()):
        pattern = ConceptPattern(
            arrays.interner.string_of(key // int(stride)),
            arrays.interner.string_of(key % int(stride)),
        )
        table_weights[pattern] = weight
    return PatternTable(table_weights)


def build_droppability_tables_vectorized(
    evidence: list[DropEvidence],
    conceptualizer: Conceptualizer,
    min_concept_evidence: float = 3.0,
    min_instance_evidence: float = 2.0,
) -> DroppabilityTables:
    """Vectorized :func:`repro.core.features.build_droppability_tables`
    over a pre-collected evidence stream."""
    if not evidence:
        return DroppabilityTables()

    segment_ids = Interner()
    segments = np.fromiter(
        (segment_ids.intern(e.segment) for e in evidence),
        dtype=np.int64,
        count=len(evidence),
    )
    frequency = np.asarray([e.frequency for e in evidence], dtype=np.float64)
    similarity = np.asarray([e.similarity for e in evidence], dtype=np.float64)

    # Instance level. bincount over segment ids (= first-seen order, the
    # reference dict's insertion order) adds in stream order.
    instance_sums = np.bincount(
        segments, weights=frequency * similarity, minlength=len(segment_ids)
    )
    instance_mass = np.bincount(segments, weights=frequency, minlength=len(segment_ids))

    # Concept level: conceptualize each distinct segment once, then expand
    # the contribution stream back to evidence rows.
    distinct_segments = list(segment_ids)
    readings = conceptualizer.conceptualize_many(distinct_segments, top_k=3)
    arrays = _ReadingArrays(distinct_segments, readings)
    concepts_per_row = arrays.lengths[segments]
    row_of_slot = np.repeat(np.arange(len(evidence), dtype=np.int64), concepts_per_row)
    slot = arrays.starts[segments][row_of_slot] + _ragged_arange(concepts_per_row)
    concept_of_slot = arrays.ids[slot]
    # Reference order: weight = frequency * prob; sums += weight * similarity.
    weight = frequency[row_of_slot] * arrays.probs[slot]
    if len(concept_of_slot):
        concept_sums = np.bincount(
            concept_of_slot,
            weights=weight * similarity[row_of_slot],
            minlength=len(arrays.interner),
        )
        concept_mass = np.bincount(
            concept_of_slot, weights=weight, minlength=len(arrays.interner)
        )
    else:
        concept_sums = concept_mass = np.zeros(0, dtype=np.float64)

    # Concept ids were interned per distinct segment in first-seen segment
    # order, which equals first appearance in the evidence stream — so
    # iterating ids ascending reproduces the reference dict order.
    concept = {
        arrays.interner.string_of(cid): float(concept_sums[cid] / concept_mass[cid])
        for cid in range(len(arrays.interner))
        if concept_mass[cid] >= min_concept_evidence
    }
    instance = {
        segment_ids.string_of(sid): float(instance_sums[sid] / instance_mass[sid])
        for sid in range(len(segment_ids))
        if instance_mass[sid] >= min_instance_evidence
    }
    return DroppabilityTables(concept=concept, instance=instance)


def training_rows_from_evidence(
    evidence: list[DropEvidence],
    drop_label_threshold: float = 0.5,
) -> tuple[list[tuple[str, str]], list[int], list[float]]:
    """The distant-supervision rows the evidence stream already encodes
    (same triple as :func:`repro.core.pipeline.constraint_training_rows`)."""
    rows = [(e.query, e.segment) for e in evidence]
    labels = [int(e.similarity < drop_label_threshold) for e in evidence]
    weights = [float(e.frequency) for e in evidence]
    return rows, labels, weights


class TrainingFeatures:
    """The classifier's training feature matrix, bit-identical to
    :meth:`~repro.core.features.ConstraintFeatureExtractor.extract_batch`.

    Each modifier's static slots are memoized across calls (an
    incremental trainer keeps them across folds); the slots that move
    with the log are refilled per call from that build's extractor,
    with the reference's expressions on the cached readings, and each
    row's drop similarity comes from its evidence.
    """

    def __init__(self, conceptualizer: Conceptualizer) -> None:
        self._conceptualizer = conceptualizer
        # No stats / droppability: the dynamic slots come out as their
        # 0.5 placeholders and are overwritten below.
        self._static = ConstraintFeatureExtractor(conceptualizer)
        self._vectors: dict[str, np.ndarray] = {}
        self._readings: dict[str, tuple[tuple[str, float], ...]] = {}

    def training_matrix(
        self,
        rows: list[tuple[str, str]],
        drop_similarities: list[float],
        extractor: ConstraintFeatureExtractor,
    ) -> np.ndarray:
        """Feature matrix for evidence rows under ``extractor``'s tables."""
        matrix = np.empty((len(rows), len(FEATURE_NAMES)), dtype=np.float64)
        droppability = extractor.droppability
        filled: dict[str, np.ndarray] = {}
        for index, (_, modifier) in enumerate(rows):
            vector = filled.get(modifier)
            if vector is None:
                base = self._vectors.get(modifier)
                if base is None:
                    base = self._static._modifier_vector(modifier)
                    self._vectors[modifier] = base
                    self._readings[modifier] = tuple(
                        self._conceptualizer.conceptualize(modifier, top_k=3)
                    )
                vector = base.copy()
                vector[_INSTANCE_DROP_SLOT] = droppability.instance.get(modifier, 0.5)
                vector[_CONCEPT_DROP_SLOT] = extractor._concept_droppability_of(
                    list(self._readings[modifier])
                )
                vector[_IDF_SLOT] = extractor._idf(modifier)
                filled[modifier] = vector
            matrix[index] = vector
        matrix[:, _DROP_SIMILARITY_SLOT] = drop_similarities
        # Rows come from observed evidence: drop similarity always exists.
        matrix[:, _DROP_MISSING_SLOT] = 0.0
        return matrix


def mine_records(
    view: SimilarityCache,
    records: Sequence[QueryRecord],
    miners: Sequence,
    segmenter,
) -> tuple[list[list[tuple[MinedPair, ...]]], list[tuple[DropEvidence, ...]]]:
    """Each miner's :meth:`~repro.mining.pairs.DeletionMiner.mine_record`
    batches (per miner, per record) and each record's
    :func:`~repro.training.evidence.record_drop_evidence` rows, all read
    through ``view``. Pass by pass, not record by record: over a whole
    log that order measured about 13% faster. Each record is mined
    through ``view.for_record(record)``, so a probe-recording view can
    tell whose lookups it sees.
    """
    mined = [
        [
            tuple(miner.mine_record(view.for_record(record), record))
            for record in records
        ]
        for miner in miners
    ]
    evidence = [
        record_drop_evidence(record, segmenter, view.for_record(record))
        for record in records
    ]
    return mined, evidence


def assemble_model(
    mined: Iterable[Iterable[Sequence[MinedPair]]],
    evidence: Iterable[Sequence[DropEvidence]],
    stats: LogStatistics,
    conceptualizer: Conceptualizer,
    features: TrainingFeatures,
    config: TrainingConfig,
    record_stage,
) -> HdmModel:
    """The rest of :func:`repro.core.pipeline.train_model` after
    :func:`mine_records`, whose output (records in log order) it takes.

    ``PairCollection.add`` is a left fold over floats, so the pair
    batches are replayed in :func:`~repro.mining.pairs.mine_pairs`'
    miner-major order. Stages are recorded as ``train_model`` names them.
    """
    with record_stage("mine"):
        collection = PairCollection()
        add = collection.add
        for batches in mined:
            for batch in batches:
                for pair in batch:
                    add(pair)
        pairs = collection.filtered(config.mining.min_pair_support)
    with record_stage("derive"):
        patterns = derive_pattern_table_vectorized(
            pairs,
            conceptualizer,
            config.top_k_concepts,
            hierarchy_discount=config.hierarchy_discount,
        )
        if config.pattern_mass < 1.0:
            patterns = patterns.pruned_to_mass(config.pattern_mass)
        if config.max_patterns is not None:
            patterns = patterns.pruned_to_count(config.max_patterns)

    classifier = None
    if config.train_classifier:
        classifier = _train_classifier(
            evidence, stats, conceptualizer, features, config, record_stage
        )
    return HdmModel(
        taxonomy=conceptualizer.taxonomy,
        patterns=patterns,
        pairs=pairs,
        classifier=classifier,
        detector_config=config.detector,
    )


def _train_classifier(
    evidence: Iterable[Sequence[DropEvidence]],
    stats: LogStatistics,
    conceptualizer: Conceptualizer,
    features: TrainingFeatures,
    config: TrainingConfig,
    record_stage,
) -> ConstraintClassifier | None:
    with record_stage("features"):
        stream = [row for rows in evidence for row in rows]
        droppability = build_droppability_tables_vectorized(stream, conceptualizer)
        extractor = ConstraintFeatureExtractor(
            conceptualizer, stats=stats, droppability=droppability
        )
        rows, labels, weights = training_rows_from_evidence(
            stream, config.drop_label_threshold
        )
        if len(rows) < 10 or len(set(labels)) < 2:
            return None  # not enough distant supervision in this log
        matrix = features.training_matrix(
            rows, [e.similarity for e in stream], extractor
        )
    with record_stage("classifier"):
        model = LogisticRegression(
            learning_rate=config.classifier_learning_rate,
            epochs=config.classifier_epochs,
            l2=config.classifier_l2,
        ).fit(matrix, np.asarray(labels, float), np.asarray(weights, float))
    return ConstraintClassifier(extractor, model, threshold=config.constraint_threshold)


def train_model_vectorized(
    log: QueryLog,
    taxonomy: ConceptTaxonomy,
    config: TrainingConfig | None = None,
    *,
    timings: dict[str, float] | None = None,
) -> HdmModel:
    """The fast twin of :func:`repro.core.pipeline.train_model`: same
    pairs, pattern table, classifier weights and detections, to the bit.

    ``timings`` is filled as there, except that ``mine`` also covers the
    drop-evidence pass.
    """
    from repro.runtime.compiled import CompiledSegmenter

    config = config or TrainingConfig()
    record_stage = _stage_recorder(timings)
    started = time.perf_counter()
    stats = LogStatistics(log)
    conceptualizer = Conceptualizer(taxonomy, cache_size=config.detector.cache_size)
    segmenter = CompiledSegmenter(taxonomy)
    miners = default_miners(config.mining)
    with record_stage("mine"):
        mined, evidence = mine_records(
            SimilarityCache(log), list(log.records()), miners, segmenter
        )
    model = assemble_model(
        mined,
        evidence,
        stats,
        conceptualizer,
        TrainingFeatures(conceptualizer),
        config,
        record_stage,
    )
    if timings is not None:
        timings["total"] = time.perf_counter() - started
    return model
