"""Fast offline training: vectorized derivation and incremental folds.

Everything in this package is output-equivalent to the reference pipeline
in :mod:`repro.core.pipeline` — bit-identical pattern tables, droppability
tables, classifier weights, and therefore detections. The reference loops
stay untouched as the readable specification; this package is how a
production log refresh actually runs. Entry points:
``train_model(log, taxonomy, vectorized=True)`` for a full build and
:class:`~repro.training.incremental.IncrementalTrainer` for O(delta)
folds of new log slices.
"""

from repro.training.evidence import (
    DropEvidence,
    SimilarityCache,
    collect_drop_evidence,
)
from repro.training.vectorized import (
    build_droppability_tables_vectorized,
    derive_pattern_table_vectorized,
    training_rows_from_evidence,
)

__all__ = [
    "DropEvidence",
    "SimilarityCache",
    "collect_drop_evidence",
    "build_droppability_tables_vectorized",
    "derive_pattern_table_vectorized",
    "training_rows_from_evidence",
]
