"""Compiled detection runtime — the fast path beside the reference one.

``HdmModel.compile()`` interns phrases/concepts to integer ids, flattens
the pattern table and typicality distributions into contiguous NumPy
arrays, and returns a :class:`CompiledDetector` producing detections
identical to the reference :class:`~repro.core.detector.HeadModifierDetector`
at a multiple of its throughput.

Batches additionally run **array-at-a-time**: ``detect_batch`` hands the
whole (deduplicated) batch to :class:`VectorizedDetector`
(:mod:`repro.runtime.vectorized`), which segments and head-scores every
query simultaneously over interned token ids — bit-identical to
per-query ``detect`` and several times its throughput at batch ≥ 256.

For serving, the compiled state persists as a binary **snapshot**
(:mod:`repro.runtime.snapshot`): a versioned flat-array file loaded with
``mmap`` so cold-start skips recompilation and concurrent replica
processes (:mod:`repro.serving.router`) share read-only pages. See
``docs/TOUR.md`` § "Runtime & performance".

Public names resolve on first use (:mod:`repro.utils.lazy`).
:data:`SNAPSHOT_VERSION` and :func:`read_snapshot_header` come from the
NumPy-free :mod:`repro.runtime.snapshot_header`, so reading a snapshot's
header (the router, ``repro snapshot --info``) loads no NumPy.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.runtime.compiled import (
        DENSE_LIMIT,
        CompiledDetector,
        CompiledSegmenter,
        PatternMatrix,
        PhraseReading,
    )
    from repro.runtime.intern import UNKNOWN, Interner
    from repro.runtime.snapshot import load_snapshot, save_snapshot
    from repro.runtime.snapshot_header import SNAPSHOT_VERSION, read_snapshot_header
    from repro.runtime.automaton import SegmentationAutomaton
    from repro.runtime.vectorized import VectorizedDetector

__all__ = [
    "CompiledDetector",
    "CompiledSegmenter",
    "PatternMatrix",
    "PhraseReading",
    "SegmentationAutomaton",
    "VectorizedDetector",
    "DENSE_LIMIT",
    "SNAPSHOT_VERSION",
    "Interner",
    "UNKNOWN",
    "load_snapshot",
    "read_snapshot_header",
    "save_snapshot",
]

if not TYPE_CHECKING:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.runtime.compiled": (
                "DENSE_LIMIT",
                "CompiledDetector",
                "CompiledSegmenter",
                "PatternMatrix",
                "PhraseReading",
            ),
            "repro.runtime.intern": ("UNKNOWN", "Interner"),
            "repro.runtime.snapshot": ("load_snapshot", "save_snapshot"),
            "repro.runtime.snapshot_header": (
                "SNAPSHOT_VERSION",
                "read_snapshot_header",
            ),
            "repro.runtime.automaton": ("SegmentationAutomaton",),
            "repro.runtime.vectorized": ("VectorizedDetector",),
        },
    )
