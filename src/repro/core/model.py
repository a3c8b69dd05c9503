"""The trained model bundle and its persistence.

:class:`HdmModel` packages everything the runtime needs — taxonomy,
weighted concept patterns, instance-pair memory, and the constraint
classifier — and builds detectors from it. ``save_model`` /
``load_model`` persist a bundle as a directory of versioned files so a
model trained once can be shipped without its training log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.concept_patterns import PatternTable
from repro.core.conceptualizer import Conceptualizer
from repro.core.constraints import ConstraintClassifier, LogisticRegression
from repro.core.detector import DetectorConfig, HeadModifierDetector
from repro.core.features import ConstraintFeatureExtractor, DroppabilityTables
from repro.core.segmentation import Segmenter
from repro.errors import ModelError
from repro.mining.pairs import PairCollection
from repro.querylog.stats import LogStatistics
from repro.taxonomy.serialization import load_taxonomy_tsv, save_taxonomy_tsv
from repro.taxonomy.store import ConceptTaxonomy

_MANIFEST = "manifest.json"
_TAXONOMY = "taxonomy.tsv.gz"
_PATTERNS = "patterns.tsv.gz"
_PAIRS = "pairs.tsv.gz"
_CLASSIFIER = "classifier.json"
_VERSION = 1


@dataclass
class HdmModel:
    """A trained head-modifier-constraint model."""

    taxonomy: ConceptTaxonomy
    patterns: PatternTable
    pairs: PairCollection
    classifier: ConstraintClassifier | None = None
    detector_config: DetectorConfig = field(default_factory=DetectorConfig)

    def conceptualizer(self) -> Conceptualizer:
        """A conceptualizer over the bundled taxonomy."""
        return Conceptualizer(self.taxonomy)

    def detector(
        self,
        stats: LogStatistics | None = None,
        config: DetectorConfig | None = None,
        correct_spelling: bool = False,
    ) -> HeadModifierDetector:
        """Build a ready-to-use detector.

        ``stats`` optionally re-binds the constraint features to a live
        query log (deployed systems have one; offline callers don't).
        ``correct_spelling`` attaches a taxonomy-vocabulary speller for
        typo robustness (small per-query cost).
        """
        conceptualizer = self.conceptualizer()
        classifier = self.classifier
        if classifier is not None and stats is not None:
            classifier = classifier.with_stats(stats)
        speller = None
        if correct_spelling:
            from repro.text.spelling import SpellingNormalizer

            speller = SpellingNormalizer.from_taxonomy(self.taxonomy)
        return HeadModifierDetector(
            patterns=self.patterns,
            conceptualizer=conceptualizer,
            instance_pairs=self.pairs,
            constraint_classifier=classifier,
            segmenter=Segmenter(self.taxonomy),
            config=config or self.detector_config,
            speller=speller,
        )

    def compile(
        self,
        stats: LogStatistics | None = None,
        config: DetectorConfig | None = None,
        correct_spelling: bool = False,
        snapshot_path: str | Path | None = None,
    ):
        """Build the compiled fast-path detector (see :mod:`repro.runtime`).

        Interns all phrases/concepts to integer ids and flattens the
        pattern table, typicality distributions, and pair supports into
        contiguous arrays; taxonomy phrases additionally compile into a
        flat-array segmentation automaton so ``detect_batch`` can run
        whole batches array-at-a-time
        (:class:`~repro.runtime.vectorized.VectorizedDetector`). The
        result detects identically to :meth:`detector` (enforced by the
        runtime parity suite) at a multiple of its throughput. The
        compiled detector snapshots the model — recompile after mutating
        taxonomy/patterns/pairs. It also takes the constraint step's
        evidence as tables
        (:class:`~repro.runtime.compiled.ConstraintTables`): per known
        phrase, its features and no-evidence decision; per logged query,
        its drop similarities. Those are a copy of the classifier's log
        statistics (or of ``stats``) at compile time, so recompile after
        the log changes, e.g. after an ``IncrementalTrainer`` fold.

        ``snapshot_path`` additionally writes the compiled state as a
        binary snapshot (:mod:`repro.runtime.snapshot`); later sessions
        can skip compilation entirely via
        ``CompiledDetector.load_snapshot(path)``, and serving replicas
        map the file read-only instead of re-pickling the model.
        """
        # repro: noqa[REP007] -- sanctioned inversion: compile() is the
        # hand-off point where the reference model builds its runtime
        # twin; deferred so plain core use never loads numpy.
        from repro.runtime.compiled import CompiledDetector

        classifier = self.classifier
        if classifier is not None and stats is not None:
            classifier = classifier.with_stats(stats)
        speller = None
        if correct_spelling:
            from repro.text.spelling import SpellingNormalizer

            speller = SpellingNormalizer.from_taxonomy(self.taxonomy)
        compiled = CompiledDetector(
            patterns=self.patterns,
            conceptualizer=self.conceptualizer(),
            instance_pairs=self.pairs,
            constraint_classifier=classifier,
            config=config or self.detector_config,
            speller=speller,
        )
        if snapshot_path is not None:
            compiled.save_snapshot(snapshot_path)
        return compiled


def save_model(model: HdmModel, directory: str | Path) -> None:
    """Persist a model bundle into ``directory`` (created if needed)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_taxonomy_tsv(model.taxonomy, directory / _TAXONOMY)
    model.patterns.save(directory / _PATTERNS)
    model.pairs.save(directory / _PAIRS)
    manifest = {
        "version": _VERSION,
        "has_classifier": model.classifier is not None,
        "detector_config": {
            "top_k_concepts": model.detector_config.top_k_concepts,
            "instance_weight": model.detector_config.instance_weight,
            "instance_smoothing": model.detector_config.instance_smoothing,
            "min_evidence": model.detector_config.min_evidence,
            "use_connector_heuristic": model.detector_config.use_connector_heuristic,
            "contextualize_modifiers": model.detector_config.contextualize_modifiers,
            "hierarchy_discount": model.detector_config.hierarchy_discount,
            "cache_size": model.detector_config.cache_size,
        },
    }
    (directory / _MANIFEST).write_text(json.dumps(manifest, indent=2))
    if model.classifier is not None:
        droppability = model.classifier.extractor.droppability
        payload = {
            "model": model.classifier.model.to_dict(),
            "threshold": model.classifier.threshold,
            "concept_droppability": droppability.concept,
            "instance_droppability": droppability.instance,
        }
        (directory / _CLASSIFIER).write_text(json.dumps(payload))


def load_model(directory: str | Path) -> HdmModel:
    """Load a bundle written by :func:`save_model`.

    The loaded classifier has no log statistics bound; pass ``stats`` to
    :meth:`HdmModel.detector` to re-attach them.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise ModelError(f"{directory}: not a model bundle (missing {_MANIFEST})")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("version") != _VERSION:
        raise ModelError(f"{directory}: unsupported model version {manifest.get('version')}")
    taxonomy = load_taxonomy_tsv(directory / _TAXONOMY)
    patterns = PatternTable.load(directory / _PATTERNS)
    pairs = PairCollection.load(directory / _PAIRS)
    config = DetectorConfig(**manifest["detector_config"])
    classifier = None
    if manifest.get("has_classifier"):
        payload = json.loads((directory / _CLASSIFIER).read_text())
        extractor = ConstraintFeatureExtractor(
            Conceptualizer(taxonomy),
            stats=None,
            droppability=DroppabilityTables(
                concept=payload["concept_droppability"],
                instance=payload["instance_droppability"],
            ),
        )
        classifier = ConstraintClassifier(
            extractor,
            LogisticRegression.from_dict(payload["model"]),
            threshold=payload["threshold"],
        )
    return HdmModel(
        taxonomy=taxonomy,
        patterns=patterns,
        pairs=pairs,
        classifier=classifier,
        detector_config=config,
    )
