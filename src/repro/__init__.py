"""repro — Head, modifier, and constraint detection in short texts.

A full reimplementation of Wang, Wang & Hu (ICDE 2014): mine instance-level
head-modifier pairs from a search log, generalize them to weighted concept
patterns through a Probase-style isA taxonomy, detect heads/modifiers in
arbitrary short texts, and classify modifiers into constraints vs.
subjective preferences.

Quickstart::

    from repro import build_default_model

    model = build_default_model(seed=7)
    detector = model.detector()
    detection = detector.detect("popular iphone 5s smart cover")
    print(detection.head)        # "smart cover"
    print(detection.modifiers)   # ("popular", "iphone 5s")
    print(detection.constraints) # ("iphone 5s",)

See DESIGN.md for the architecture and EXPERIMENTS.md for the reproduced
evaluation.

Public names resolve on first use (:mod:`repro.utils.lazy`): ``import
repro`` loads only that helper, and each process — ``repro serve``, the
router, a replica, training — imports only the modules it runs.
:mod:`repro.analysis` is the exception and stays eager, because its lint
rules register themselves when their modules are imported.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core import (
        ConceptPattern,
        Conceptualizer,
        ConstraintClassifier,
        Detection,
        DetectorConfig,
        HdmModel,
        HeadModifierDetector,
        PatternTable,
        RuleConstraintClassifier,
        Segmenter,
        TermRole,
        TrainingConfig,
        load_model,
        save_model,
        train_model,
    )
    from repro.errors import ReproError
    from repro.mining import MiningConfig, mine_pairs
    from repro.querylog import LogConfig, QueryLog, generate_log
    from repro.taxonomy import ConceptTaxonomy, TypicalityScorer, build_from_seed

__version__ = "1.0.0"

__all__ = [
    "build_default_model",
    "train_model",
    "TrainingConfig",
    "HdmModel",
    "save_model",
    "load_model",
    "HeadModifierDetector",
    "DetectorConfig",
    "Detection",
    "TermRole",
    "Segmenter",
    "Conceptualizer",
    "ConceptPattern",
    "PatternTable",
    "ConstraintClassifier",
    "RuleConstraintClassifier",
    "ConceptTaxonomy",
    "TypicalityScorer",
    "build_from_seed",
    "QueryLog",
    "LogConfig",
    "generate_log",
    "MiningConfig",
    "mine_pairs",
    "ReproError",
    "__version__",
]


if not TYPE_CHECKING:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.core": (
                "ConceptPattern",
                "Conceptualizer",
                "ConstraintClassifier",
                "Detection",
                "DetectorConfig",
                "HdmModel",
                "HeadModifierDetector",
                "PatternTable",
                "RuleConstraintClassifier",
                "Segmenter",
                "TermRole",
                "TrainingConfig",
                "load_model",
                "save_model",
                "train_model",
            ),
            "repro.errors": ("ReproError",),
            "repro.mining": ("MiningConfig", "mine_pairs"),
            "repro.querylog": ("LogConfig", "QueryLog", "generate_log"),
            "repro.taxonomy": (
                "ConceptTaxonomy",
                "TypicalityScorer",
                "build_from_seed",
            ),
        },
    )


def build_default_model(
    seed: int = 13,
    num_intents: int = 4000,
    config: TrainingConfig | None = None,
) -> HdmModel:
    """Train a model on the built-in taxonomy and a synthetic log.

    This is the one-call entry point for examples and experiments: build
    the seed taxonomy, generate a search log, and run the full training
    pipeline (the reference :func:`~repro.core.pipeline.train_model`).
    """
    from repro.core.pipeline import train_model
    from repro.querylog.generator import LogConfig, generate_log
    from repro.taxonomy.builder import build_from_seed

    taxonomy = build_from_seed()
    log = generate_log(taxonomy, LogConfig(seed=seed, num_intents=num_intents))
    return train_model(log, taxonomy, config)
