"""Fast offline training: one stateless build and incremental folds.

Everything in this package is output-equivalent to the reference pipeline
in :mod:`repro.core.pipeline` — bit-identical pattern tables, droppability
tables, classifier weights, and therefore detections. The reference loops
stay untouched as the readable specification; this package is how a
production log refresh actually runs. Entry points:
``train_model_vectorized(log, taxonomy)`` for a full build and
:class:`~repro.training.incremental.IncrementalTrainer` for O(delta)
folds of new log slices; both run the same per-record kernel and the
same model assembly.
"""

from repro.training.evidence import DropEvidence, SimilarityCache
from repro.training.vectorized import (
    build_droppability_tables_vectorized,
    derive_pattern_table_vectorized,
    train_model_vectorized,
    training_rows_from_evidence,
)

__all__ = [
    "DropEvidence",
    "SimilarityCache",
    "build_droppability_tables_vectorized",
    "derive_pattern_table_vectorized",
    "train_model_vectorized",
    "training_rows_from_evidence",
]
