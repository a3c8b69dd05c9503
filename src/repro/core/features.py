"""Feature extraction for the constraint classifier.

Constraints are *specific* modifiers (brands, models, places, years) whose
removal changes what the short text asks for; non-constraints are
*subjective* or generic preferences. The features capture both faces:

- lexical subjectivity (the word itself is evaluative),
- semantic specificity (how narrow/typical the modifier's concepts are),
- behavioural droppability (what happened in the log when users dropped
  it — directly per query when log statistics are available, otherwise
  generalized through a droppability table learned at training time, at
  instance level where evidence exists and at *concept* level beyond it).

The concept-droppability table is the same generalization move as the
concept patterns: evidence observed on some instances transfers to unseen
instances of the same concept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.conceptualizer import Conceptualizer
from repro.querylog.stats import LogStatistics, host_path_similarity
from repro.text.lexicon import Lexicon, default_lexicon

FEATURE_NAMES: tuple[str, ...] = (
    "subjective",
    "intent_verb",
    "known_instance",
    "ambiguity",
    "concept_breadth",
    "specificity",
    "numeric",
    "multiword",
    "drop_similarity",
    "drop_evidence_missing",
    "instance_droppability",
    "concept_droppability",
    "idf",
)

#: Ambiguity / breadth entropies are squashed into [0, 1] at these scales.
_AMBIGUITY_SCALE = 2.0
_BREADTH_SCALE = 4.0
_IDF_SCALE = 10.0

#: The only two features that depend on the query, not just the modifier.
_DROP_SIMILARITY = FEATURE_NAMES.index("drop_similarity")
_DROP_EVIDENCE_MISSING = FEATURE_NAMES.index("drop_evidence_missing")

#: Their values when the log holds no drop evidence for the pair.
NO_DROP_EVIDENCE: tuple[float, float] = (0.5, 1.0)


def _squash(value: float, scale: float) -> float:
    """Clamp a non-negative quantity into [0, 1] at the given scale."""
    return min(1.0, max(0.0, value) / scale)


@dataclass(frozen=True)
class DroppabilityTables:
    """Training-time aggregates of click-drop behaviour.

    ``instance`` maps a modifier phrase to its mean observed drop
    similarity; ``concept`` generalizes the same evidence to concept level
    for phrases never observed as droppable segments.
    """

    concept: dict[str, float] = field(default_factory=dict)
    instance: dict[str, float] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        """True when neither table holds any evidence."""
        return not self.concept and not self.instance


class ConstraintFeatureExtractor:
    """Maps (query, modifier) to a dense feature vector."""

    def __init__(
        self,
        conceptualizer: Conceptualizer,
        stats: LogStatistics | None = None,
        droppability: DroppabilityTables | None = None,
        lexicon: Lexicon | None = None,
    ) -> None:
        self._conceptualizer = conceptualizer
        self._stats = stats
        self._droppability = droppability or DroppabilityTables()
        self._lexicon = lexicon or default_lexicon()

    @property
    def num_features(self) -> int:
        """Dimensionality of the feature vector."""
        return len(FEATURE_NAMES)

    @property
    def stats(self) -> LogStatistics | None:
        """The log statistics behind the behavioural features, if any."""
        return self._stats

    @property
    def droppability(self) -> DroppabilityTables:
        """The droppability tables bound to this extractor."""
        return self._droppability

    def with_stats(self, stats: LogStatistics | None) -> "ConstraintFeatureExtractor":
        """A copy bound to different (or no) log statistics."""
        return ConstraintFeatureExtractor(
            self._conceptualizer, stats, self._droppability, self._lexicon
        )

    def extract(self, query: str, modifier: str) -> np.ndarray:
        """Feature vector for ``modifier`` inside ``query``."""
        vector = self._modifier_vector(modifier)
        drop_sim, drop_missing = self._drop_evidence(query, modifier)
        vector[_DROP_SIMILARITY] = drop_sim
        vector[_DROP_EVIDENCE_MISSING] = drop_missing
        return vector

    def _modifier_vector(self, modifier: str) -> np.ndarray:
        """All features that depend only on the modifier (fresh array;
        the two drop-evidence slots are left as placeholders)."""
        words = modifier.split()
        concepts = self._conceptualizer.conceptualize(modifier, top_k=3)
        top_concept = concepts[0][0] if concepts else None

        subjective = float(all(self._lexicon.is_subjective(w) for w in words))
        intent_verb = float(all(w in self._lexicon.intent_verbs for w in words))
        known = float(bool(concepts))
        ambiguity = _squash(
            self._conceptualizer.scorer.instance_ambiguity(modifier), _AMBIGUITY_SCALE
        )
        breadth = (
            _squash(self._conceptualizer.scorer.concept_breadth(top_concept), _BREADTH_SCALE)
            if top_concept
            else 0.0
        )
        specificity = self._specificity(modifier)
        numeric = float(any(any(ch.isdigit() for ch in w) for w in words))
        multiword = float(len(words) > 1)
        instance_drop = self._droppability.instance.get(modifier, 0.5)
        concept_drop = self._concept_droppability_of(concepts)
        idf = self._idf(modifier)

        return np.array(
            [
                subjective,
                intent_verb,
                known,
                ambiguity,
                breadth,
                specificity,
                numeric,
                multiword,
                0.0,  # drop_similarity placeholder
                0.0,  # drop_evidence_missing placeholder
                instance_drop,
                concept_drop,
                idf,
            ],
            dtype=np.float64,
        )

    def extract_batch(self, rows: list[tuple[str, str]]) -> np.ndarray:
        """Feature matrix for ``(query, modifier)`` rows."""
        if not rows:
            return np.zeros((0, self.num_features))
        return np.vstack([self.extract(q, m) for q, m in rows])

    # ------------------------------------------------------------------
    # individual features
    # ------------------------------------------------------------------
    def _specificity(self, modifier: str) -> float:
        """1 for rare/narrow instances, → 0 for extremely popular ones."""
        taxonomy = self._conceptualizer.taxonomy
        total = taxonomy.instance_total(modifier)
        if total <= 0:
            return 0.5  # unknown: neutral
        return 1.0 / (1.0 + math.log1p(total) / 3.0)

    def _drop_evidence(self, query: str, modifier: str) -> tuple[float, float]:
        if self._stats is None:
            return NO_DROP_EVIDENCE
        similarity = self._stats.drop_similarity(query, modifier)
        if similarity is None:
            return NO_DROP_EVIDENCE
        return similarity, 0.0

    def _concept_droppability_of(self, concepts: list[tuple[str, float]]) -> float:
        if not concepts or not self._droppability.concept:
            return 0.5
        weighted = 0.0
        mass = 0.0
        for concept, prob in concepts:
            value = self._droppability.concept.get(concept)
            if value is not None:
                weighted += prob * value
                mass += prob
        return weighted / mass if mass > 0 else 0.5

    def _idf(self, modifier: str) -> float:
        if self._stats is None:
            return 0.5
        return min(1.0, self._stats.phrase_idf(modifier) / _IDF_SCALE)


def build_droppability_tables(
    log_stats: LogStatistics,
    conceptualizer: Conceptualizer,
    segmenter,
    min_concept_evidence: float = 3.0,
    min_instance_evidence: float = 2.0,
    head_similarity_cutoff: float = 0.6,
) -> DroppabilityTables:
    """Aggregate per-query drop evidence into droppability tables.

    For every log query and every non-head segment with drop evidence, the
    observed click similarity (query vs. query-without-segment) is credited
    to the segment (instance level) and its concepts (weighted by query
    volume and typicality). Head-like segments (whose own standalone clicks
    match the query's) are excluded — dropping the head always changes
    results, but that says nothing about modifier droppability.
    """
    log = log_stats.log
    concept_sums: dict[str, float] = {}
    concept_mass: dict[str, float] = {}
    instance_sums: dict[str, float] = {}
    instance_mass: dict[str, float] = {}
    for record in log.records():
        if len(record.tokens) < 2:
            continue
        for segment in segmenter.segment(record.query):
            if segment.num_tokens >= len(record.tokens):
                continue
            similarity = log_stats.drop_similarity(record.query, segment.text)
            if similarity is None:
                continue
            if _is_head_like(log, record, segment.text, head_similarity_cutoff):
                continue
            instance_sums[segment.text] = (
                instance_sums.get(segment.text, 0.0) + record.frequency * similarity
            )
            instance_mass[segment.text] = (
                instance_mass.get(segment.text, 0.0) + record.frequency
            )
            for concept, prob in conceptualizer.conceptualize(segment.text, top_k=3):
                weight = record.frequency * prob
                concept_sums[concept] = concept_sums.get(concept, 0.0) + weight * similarity
                concept_mass[concept] = concept_mass.get(concept, 0.0) + weight
    return DroppabilityTables(
        concept={
            c: concept_sums[c] / concept_mass[c]
            for c in concept_sums
            if concept_mass[c] >= min_concept_evidence
        },
        instance={
            i: instance_sums[i] / instance_mass[i]
            for i in instance_sums
            if instance_mass[i] >= min_instance_evidence
        },
    )


def _is_head_like(log, record, segment_text: str, cutoff: float) -> bool:
    segment_record = log.lookup(segment_text)
    if segment_record is None or not segment_record.clicks:
        return False
    return host_path_similarity(record.clicks, segment_record.clicks) >= cutoff
