"""Single-pass drop-evidence collection for the fast training builds.

The reference pipeline walks the log twice with identical filtering:
:func:`repro.core.features.build_droppability_tables` aggregates the
droppability tables, then :func:`repro.core.pipeline.constraint_training_rows`
re-segments every query and recomputes every drop similarity to emit the
distant-supervision rows. Both passes need exactly the same facts per
(query, segment): the observed drop similarity and the query volume.

:func:`record_drop_evidence` computes those facts once per record, and
the stream of them feeds both consumers. It reads the log through a
:class:`~repro.querylog.stats.SimilarityCache` (re-exported here), the
same memoized view the deletion miner compares sub-queries through, so
each record's lookups, collapsed host+path histogram and cosine norms
are paid once per log state however many comparisons read them. Every
arithmetic operation matches the reference (`querylog.stats._cosine`)
term for term, so the cached similarities are bit-identical, not merely
close. Both fast builds call it from
:func:`repro.training.vectorized.mine_records`; the incremental trainer
caches its result per record.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.querylog.models import QueryRecord
from repro.querylog.stats import HEAD_SIMILARITY_CUTOFF, SimilarityCache

__all__ = [
    "HEAD_SIMILARITY_CUTOFF",
    "DropEvidence",
    "SimilarityCache",
    "record_drop_evidence",
]


@dataclass(frozen=True, slots=True)
class DropEvidence:
    """One observed segment drop: the unit both training consumers share."""

    query: str
    segment: str
    similarity: float
    frequency: int

    def __reduce__(self):
        # Constructor arguments, not the dataclass getstate/setstate
        # pair: training states hold tens of thousands of these, and
        # this form pickles and unpickles in C.
        return type(self), (self.query, self.segment, self.similarity, self.frequency)


def record_drop_evidence(
    record: QueryRecord,
    segmenter,
    cache: SimilarityCache,
) -> tuple[DropEvidence, ...]:
    """One record's drop observations, in segment order.

    Applies exactly the reference filters: multi-token queries only,
    proper sub-segments only, drop evidence must exist in the log, and
    head-like segments are excluded.
    """
    num_tokens = len(record.tokens)
    if num_tokens < 2:
        return ()
    rows: list[DropEvidence] = []
    for segment in segmenter.segment(record.query):
        if segment.num_tokens >= num_tokens:
            continue
        similarity = cache.drop_similarity(record, segment.text)
        if similarity is None:
            continue
        if cache.is_head_like(record, segment.text):
            continue
        rows.append(
            DropEvidence(record.query, segment.text, similarity, record.frequency)
        )
    return tuple(rows)

