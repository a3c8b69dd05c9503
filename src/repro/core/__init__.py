"""The paper's primary contribution.

Pipeline (abstract, steps 2-4):

- :mod:`repro.core.conceptualizer` — generalize instances to concepts via
  the isA taxonomy with typicality weighting and multi-word backoff.
- :mod:`repro.core.concept_patterns` — aggregate mined instance pairs into
  *weighted concept patterns*, then prune to a concise, high-coverage set.
- :mod:`repro.core.segmentation` — break a short text into instance-level
  segments (queries do not come pre-segmented).
- :mod:`repro.core.detector` — the runtime head-modifier detector scoring
  candidate (modifier → head) assignments against the pattern table, with
  an instance-level memory and a positional fallback.
- :mod:`repro.core.features` / :mod:`repro.core.constraints` — the
  constraint classifier separating specific modifiers from subjective ones.
- :mod:`repro.core.model` / :mod:`repro.core.pipeline` — bundling,
  persistence, and end-to-end training from a query log.

Public names resolve on first use (:mod:`repro.utils.lazy`), so importing
the package loads none of its submodules.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.analysis import (
        compare_tables,
        direction_conflicts,
        pair_coverage,
        summarize_table,
    )
    from repro.core.compound import CompoundDetection, CompoundDetector
    from repro.core.conceptualizer import Conceptualizer
    from repro.core.concept_patterns import (
        ConceptPattern,
        PatternTable,
        derive_pattern_table,
    )
    from repro.core.constraints import (
        ConstraintClassifier,
        LogisticRegression,
        RuleConstraintClassifier,
    )
    from repro.core.detector import (
        Detection,
        DetectorConfig,
        HeadModifierDetector,
        TermRole,
    )
    from repro.core.explain import (
        CandidateScore,
        DetectionExplanation,
        PatternContribution,
        explain_detection,
    )
    from repro.core.features import ConstraintFeatureExtractor, FEATURE_NAMES
    from repro.core.model import HdmModel, load_model, save_model
    from repro.core.pipeline import TrainingConfig, train_model
    from repro.core.segmentation import Segment, Segmenter

__all__ = [
    "Conceptualizer",
    "ConceptPattern",
    "PatternTable",
    "derive_pattern_table",
    "Segment",
    "Segmenter",
    "Detection",
    "DetectorConfig",
    "HeadModifierDetector",
    "TermRole",
    "ConstraintFeatureExtractor",
    "FEATURE_NAMES",
    "ConstraintClassifier",
    "RuleConstraintClassifier",
    "LogisticRegression",
    "HdmModel",
    "save_model",
    "load_model",
    "TrainingConfig",
    "train_model",
    "CompoundDetection",
    "CompoundDetector",
    "explain_detection",
    "DetectionExplanation",
    "CandidateScore",
    "PatternContribution",
    "summarize_table",
    "direction_conflicts",
    "pair_coverage",
    "compare_tables",
]

if not TYPE_CHECKING:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.core.analysis": (
                "compare_tables",
                "direction_conflicts",
                "pair_coverage",
                "summarize_table",
            ),
            "repro.core.compound": ("CompoundDetection", "CompoundDetector"),
            "repro.core.conceptualizer": ("Conceptualizer",),
            "repro.core.concept_patterns": (
                "ConceptPattern",
                "PatternTable",
                "derive_pattern_table",
            ),
            "repro.core.constraints": (
                "ConstraintClassifier",
                "LogisticRegression",
                "RuleConstraintClassifier",
            ),
            "repro.core.detector": (
                "Detection",
                "DetectorConfig",
                "HeadModifierDetector",
                "TermRole",
            ),
            "repro.core.explain": (
                "CandidateScore",
                "DetectionExplanation",
                "PatternContribution",
                "explain_detection",
            ),
            "repro.core.features": ("ConstraintFeatureExtractor", "FEATURE_NAMES"),
            "repro.core.model": ("HdmModel", "load_model", "save_model"),
            "repro.core.pipeline": ("TrainingConfig", "train_model"),
            "repro.core.segmentation": ("Segment", "Segmenter"),
        },
    )
