"""End-to-end training: query log + taxonomy → :class:`HdmModel`.

Mirrors the paper's offline pipeline:

1. mine instance-level head-modifier pairs from the log;
2. conceptualize them and derive the weighted concept-pattern table;
3. prune the table to a concise high-mass prefix;
4. build the concept-droppability table and train the constraint
   classifier with distant supervision from click behaviour.

No step reads gold labels.

:func:`train_model` is the readable reference and the parity oracle.
Production builds run its bit-identical fast twin,
:func:`repro.training.vectorized.train_model_vectorized`, and the
incremental trainer built from the same pieces.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.concept_patterns import derive_pattern_table
from repro.core.conceptualizer import Conceptualizer
from repro.core.constraints import ConstraintClassifier, LogisticRegression
from repro.core.detector import DetectorConfig
from repro.core.features import (
    ConstraintFeatureExtractor,
    build_droppability_tables,
)
from repro.core.model import HdmModel
from repro.core.segmentation import Segmenter
from repro.errors import ModelError
from repro.mining.pairs import MiningConfig, mine_pairs
from repro.querylog.models import QueryLog
from repro.querylog.stats import LogStatistics, host_path_similarity
from repro.taxonomy.store import ConceptTaxonomy


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs of the offline pipeline."""

    mining: MiningConfig = field(default_factory=MiningConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    #: Concepts considered per instance side during pattern derivation.
    top_k_concepts: int = 5
    #: Super-concept attenuation during derivation (0 = no hierarchy
    #: backoff; pair with DetectorConfig.hierarchy_discount).
    hierarchy_discount: float = 0.0
    #: Fraction of pattern mass kept after pruning (1.0 = keep all).
    pattern_mass: float = 0.99
    #: Hard cap on pattern count after mass pruning (None = no cap).
    max_patterns: int | None = None
    train_classifier: bool = True
    #: Distant-supervision label boundary on drop-similarity.
    drop_label_threshold: float = 0.5
    classifier_epochs: int = 400
    classifier_learning_rate: float = 0.5
    classifier_l2: float = 1e-3
    constraint_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.pattern_mass <= 1:
            raise ModelError("pattern_mass must be in (0, 1]")
        if not 0 < self.drop_label_threshold < 1:
            raise ModelError("drop_label_threshold must be in (0, 1)")


def train_model(
    log: QueryLog,
    taxonomy: ConceptTaxonomy,
    config: TrainingConfig | None = None,
    *,
    timings: dict[str, float] | None = None,
) -> HdmModel:
    """Run the full offline pipeline and return the trained bundle.

    ``timings``, when given, is filled with per-stage wall seconds
    (``mine``, ``derive``, ``features``, ``classifier``, ``total``).
    """
    config = config or TrainingConfig()
    record_stage = _stage_recorder(timings)
    started = time.perf_counter()
    stats = LogStatistics(log)
    conceptualizer = Conceptualizer(taxonomy)
    segmenter = Segmenter(taxonomy)

    with record_stage("mine"):
        pairs = mine_pairs(log, config.mining)
    with record_stage("derive"):
        patterns = derive_pattern_table(
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
        classifier = _train_constraint_classifier(
            stats, conceptualizer, segmenter, config, record_stage
        )

    if timings is not None:
        timings["total"] = time.perf_counter() - started
    return HdmModel(
        taxonomy=taxonomy,
        patterns=patterns,
        pairs=pairs,
        classifier=classifier,
        detector_config=config.detector,
    )


def _stage_recorder(timings: dict[str, float] | None):
    """A context-manager factory accumulating stage wall time."""

    @contextlib.contextmanager
    def record_stage(name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            if timings is not None:
                timings[name] = (
                    timings.get(name, 0.0) + time.perf_counter() - started
                )

    return record_stage


def constraint_training_rows(
    stats: LogStatistics,
    segmenter: Segmenter,
    drop_label_threshold: float = 0.5,
) -> tuple[list[tuple[str, str]], list[int], list[float]]:
    """Distant-supervision rows for the constraint classifier.

    Rows are (query, modifier-segment) pairs with drop evidence in the
    log; the label is whether dropping the segment changed clicks (1 =
    constraint). Head-like segments are excluded — dropping the head
    always changes results, which says nothing about modifiers. Weights
    are query volumes. Public so ablation experiments can retrain on
    feature subsets.
    """
    rows: list[tuple[str, str]] = []
    labels: list[int] = []
    weights: list[float] = []
    for record in stats.log.records():
        if len(record.tokens) < 2:
            continue
        for segment in segmenter.segment(record.query):
            if segment.num_tokens >= len(record.tokens):
                continue
            similarity = stats.drop_similarity(record.query, segment.text)
            if similarity is None:
                continue
            if _is_head_like(stats.log, record, segment.text):
                continue
            rows.append((record.query, segment.text))
            labels.append(int(similarity < drop_label_threshold))
            weights.append(float(record.frequency))
    return rows, labels, weights


def _train_constraint_classifier(
    stats: LogStatistics,
    conceptualizer: Conceptualizer,
    segmenter: Segmenter,
    config: TrainingConfig,
    record_stage,
) -> ConstraintClassifier | None:
    """Distant-supervision training of the constraint classifier."""
    with record_stage("features"):
        droppability = build_droppability_tables(stats, conceptualizer, segmenter)
        extractor = ConstraintFeatureExtractor(
            conceptualizer, stats=stats, droppability=droppability
        )
        rows, labels, weights = constraint_training_rows(
            stats, segmenter, config.drop_label_threshold
        )
        if len(rows) < 10 or len(set(labels)) < 2:
            return None  # not enough distant supervision in this log
        features = extractor.extract_batch(rows)
    with record_stage("classifier"):
        model = LogisticRegression(
            learning_rate=config.classifier_learning_rate,
            epochs=config.classifier_epochs,
            l2=config.classifier_l2,
        ).fit(features, np.asarray(labels, float), np.asarray(weights, float))
    return ConstraintClassifier(extractor, model, threshold=config.constraint_threshold)


def _is_head_like(log: QueryLog, record, segment_text: str) -> bool:
    segment_record = log.lookup(segment_text)
    if segment_record is None or not segment_record.clicks:
        return False
    return host_path_similarity(record.clicks, segment_record.clicks) >= 0.6
