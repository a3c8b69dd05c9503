"""Aggregate statistics over a query log.

These are the observable signals mining and the constraint features build
on: click-distribution similarity at two granularities, term document
frequencies, standalone-query probabilities, and click dispersion.
:class:`SimilarityCache` serves the same similarities over one state of a
log with every per-record quantity memoized, for the training passes that
compare each record against many others.

:class:`TableStatistics` is what the constraint features read of a log,
taken once as tables: :class:`DropEdges` (every logged query's drop
similarities) and the document-frequency counter. A compiled detector
and its snapshot carry it in place of the click log.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping

from repro.querylog.models import QueryLog, QueryRecord
from repro.querylog.urls import url_host_path
from repro.text.normalizer import normalize_fast
from repro.utils.mathx import entropy, safe_div

#: Host+path similarity above which a segment counts as head-like and is
#: excluded from drop evidence (same constant as the reference pipeline).
HEAD_SIMILARITY_CUTOFF = 0.6


def click_similarity(a: Mapping[str, int], b: Mapping[str, int]) -> float:
    """Cosine similarity between two clicked-URL histograms.

    Full-URL granularity: high only when two queries land users on the
    same *result pages* — the signal that tells constraints apart from
    droppable modifiers.
    """
    return _cosine(a, b)


def host_path_similarity(a: Mapping[str, int], b: Mapping[str, int]) -> float:
    """Cosine similarity after collapsing URLs to host+path.

    Host+path identifies *what the page is about* regardless of result
    specialization, so a query and its head-only sub-query score high here
    even when their full URLs differ.
    """
    return _cosine(_collapse(a), _collapse(b))


def _collapse(clicks: Mapping[str, int]) -> dict[str, int]:
    collapsed: dict[str, int] = {}
    for url, count in clicks.items():
        key = url_host_path(url)
        collapsed[key] = collapsed.get(key, 0) + count
    return collapsed


def _cosine(a: Mapping[str, int], b: Mapping[str, int]) -> float:
    if not a or not b:
        return 0.0
    dot = sum(count * b.get(url, 0) for url, count in a.items())
    norm_a = math.sqrt(sum(c * c for c in a.values()))
    norm_b = math.sqrt(sum(c * c for c in b.values()))
    return safe_div(dot, norm_a * norm_b)


class SimilarityCache:
    """Memoized click-similarity primitives over one state of a log.

    The training passes that compare each record against many others —
    the deletion miner's sub-query tests and the drop-evidence pass —
    share one cache, so each record's collapsed host+path histogram and
    both cosine norms are computed once rather than once per comparison.
    Lookups normalize with :func:`~repro.text.normalizer.normalize_fast`
    (equal to ``normalize`` by contract), memoized per string.

    Every method reproduces the module-level functions bit for bit: the
    same dict iteration orders, the same ``sqrt``/``safe_div``
    expressions. The memos are keyed by query, so a cache is valid only
    while the log's records stay as they were when it was built: build a
    new one after the log changes.
    """

    def __init__(self, log: QueryLog) -> None:
        self._log = log
        #: text -> (normalized key, record under that key or None).
        self._lookups: dict[str, tuple[str, QueryRecord | None]] = {}
        self._norms: dict[str, float] = {}
        #: query -> (host+path histogram, its cosine norm).
        self._collapsed: dict[str, tuple[dict[str, int], float]] = {}

    def lookup(self, text: str) -> QueryRecord | None:
        """``log.lookup(text)``, resolving each distinct string once."""
        return (self._lookups.get(text) or self._resolve(text))[1]

    def for_record(self, record: QueryRecord) -> "SimilarityCache":
        """The view to mine ``record`` through: this cache itself. The
        incremental trainer's view overrides it to file the lookups
        that follow under ``record``."""
        return self

    def drop_similarity(self, record: QueryRecord, segment: str) -> float | None:
        """``LogStatistics.drop_similarity(record.query, segment)``."""
        reduced = _remove_segment(record.query, segment)
        if reduced is None:
            return None
        reduced_record = self.lookup(reduced)
        if reduced_record is None:
            return None
        return self.click_similarity(record, reduced_record)

    def click_similarity(self, a: QueryRecord, b: QueryRecord) -> float:
        """:func:`click_similarity` of two records' click histograms."""
        if not a.clicks or not b.clicks:
            return 0.0
        dot = sum(count * b.clicks.get(url, 0) for url, count in a.clicks.items())
        norm_a = self._norms.get(a.query) or self._norm(a)
        norm_b = self._norms.get(b.query) or self._norm(b)
        return safe_div(dot, norm_a * norm_b)

    def host_path_similarity(self, a: QueryRecord, b: QueryRecord) -> float:
        """:func:`host_path_similarity` of two records' click histograms."""
        collapsed_a, norm_a = self._collapsed.get(a.query) or self._collapse_record(a)
        collapsed_b, norm_b = self._collapsed.get(b.query) or self._collapse_record(b)
        if not collapsed_a or not collapsed_b:
            return 0.0
        dot = sum(
            count * collapsed_b.get(url, 0) for url, count in collapsed_a.items()
        )
        return safe_div(dot, norm_a * norm_b)

    def is_head_like(
        self,
        record: QueryRecord,
        segment: str,
        cutoff: float = HEAD_SIMILARITY_CUTOFF,
    ) -> bool:
        """Whether the segment's own clicks match the full query's."""
        segment_record = self.lookup(segment)
        if segment_record is None or not segment_record.clicks:
            return False
        return self.host_path_similarity(record, segment_record) >= cutoff

    def _resolve(self, text: str) -> tuple[str, QueryRecord | None]:
        key = normalize_fast(text)
        resolved = self._lookups[text] = (key, self._log.lookup_exact(key))
        return resolved

    def _norm(self, record: QueryRecord) -> float:
        norm = self._norms[record.query] = math.sqrt(
            sum(c * c for c in record.clicks.values())
        )
        return norm

    def _collapse_record(self, record: QueryRecord) -> tuple[dict[str, int], float]:
        collapsed = _collapse(record.clicks)
        entry = self._collapsed[record.query] = (
            collapsed,
            math.sqrt(sum(c * c for c in collapsed.values())),
        )
        return entry


class _TermIdf:
    """Token IDFs over a document-frequency counter (``_term_query_freq``)
    counted over ``_num_queries`` distinct queries."""

    _term_query_freq: Mapping[str, int]
    _num_queries: int

    @property
    def num_queries(self) -> int:
        """Distinct queries the document frequencies count over."""
        return self._num_queries

    @property
    def document_frequencies(self) -> Mapping[str, int]:
        """Token → number of distinct log queries containing it."""
        return self._term_query_freq

    def term_idf(self, term: str) -> float:
        """Smoothed inverse query frequency of a single token."""
        df = self._term_query_freq.get(term, 0)
        return math.log((self._num_queries + 1) / (df + 1)) + 1.0

    def phrase_idf(self, phrase: str) -> float:
        """Mean token IDF of a (possibly multi-token) phrase."""
        tokens = phrase.split()
        if not tokens:
            return 0.0
        return sum(self.term_idf(t) for t in tokens) / len(tokens)


class LogStatistics(_TermIdf):
    """Precomputed per-term and per-query statistics over one log.

    Construction is a single pass; lookups are O(1). Everything here uses
    only the observable log interface (never gold labels).
    """

    def __init__(self, log: QueryLog) -> None:
        self._log = log
        self._term_query_freq: Counter[str] = Counter()
        self._total_volume = 0
        for record in log.records():
            self._total_volume += record.frequency
            # dict.fromkeys, not set: first-seen order keeps the
            # counter's key order (and every snapshot built from it)
            # independent of the process's string hash seed.
            for term in dict.fromkeys(record.tokens):
                self._term_query_freq[term] += 1
        self._num_queries = log.num_queries

    def absorb(self, record, *, new_query: bool) -> None:
        """Fold one record's delta contribution into the counters.

        ``record`` carries the *delta* frequency and the query's tokens;
        ``new_query`` says whether the surface string was previously
        unseen in the log (document frequencies count distinct queries,
        so merges into an existing query leave them untouched). All
        counters are integers, so the result is exactly — not
        approximately — what a from-scratch construction over the merged
        log would compute, regardless of fold order.
        """
        self._total_volume += record.frequency
        if new_query:
            for term in dict.fromkeys(record.tokens):
                self._term_query_freq[term] += 1
            self._num_queries += 1

    @property
    def log(self) -> QueryLog:
        """The underlying query log."""
        return self._log

    @property
    def total_volume(self) -> int:
        """Total query volume of the log."""
        return self._total_volume

    # ------------------------------------------------------------------
    # query statistics
    # ------------------------------------------------------------------
    def standalone_probability(self, phrase: str) -> float:
        """P(a random log query is exactly this phrase).

        The statistical baseline scores head candidates with this: heads
        are things people also search for on their own.
        """
        record = self._log.lookup(phrase)
        if record is None:
            return 0.0
        return safe_div(record.frequency, self._total_volume)

    def click_entropy(self, query: str) -> float:
        """Entropy (nats) of a query's click distribution; 0 when unknown.

        Navigational queries have near-zero entropy; ambiguous ones spread
        clicks across unrelated hosts.
        """
        record = self._log.lookup(query)
        if record is None or not record.clicks:
            return 0.0
        return entropy(record.clicks.values())

    def drop_similarity(self, query: str, without: str) -> float | None:
        """Full-URL click similarity between ``query`` and ``query`` with
        the segment ``without`` removed.

        Returns ``None`` when the reduced query is absent from the log (no
        evidence either way). High values mean the removed segment did not
        change what users clicked — i.e. it was not a constraint.
        """
        record = self._log.lookup(query)
        if record is None:
            return None
        reduced = _remove_segment(query, without)
        if reduced is None:
            return None
        reduced_record = self._log.lookup(reduced)
        if reduced_record is None:
            return None
        return click_similarity(record.clicks, reduced_record.clicks)

    def subquery_support(self, query: str, part: str) -> tuple[float, float] | None:
        """(host-path similarity, standalone probability) of ``part`` as a
        sub-query of ``query``; ``None`` when ``part`` is not in the log."""
        record = self._log.lookup(query)
        part_record = self._log.lookup(part)
        if record is None or part_record is None:
            return None
        return (
            host_path_similarity(record.clicks, part_record.clicks),
            self.standalone_probability(part),
        )


class DropEdges:
    """Every logged query's drop similarities, as one CSR table.

    An *edge* of a logged query is a contiguous span of its tokens whose
    removal leaves a query the log also holds, together with that
    removal's :func:`click_similarity` — exactly
    ``LogStatistics.drop_similarity(query, span)``, a ``0.0`` when either
    click map is empty included. Query ``queries[i]`` owns the edges
    ``spans[offsets[i]:offsets[i + 1]]`` and the ``similarities``
    alongside them. Queries are keyed as the log stores them
    (:func:`~repro.text.normalizer.normalize_fast`), and a query with no
    edge is left out: its lookups answer None, as for a query the log
    does not hold.
    """

    def __init__(
        self,
        queries: list[str],
        offsets: list[int],
        spans: list[str],
        similarities: list[float],
    ) -> None:
        self.queries = queries
        self.offsets = offsets
        self.spans = spans
        self.similarities = similarities
        #: Query key → its row.
        self.index = dict(zip(queries, range(len(queries))))
        #: Row dicts, built on a row's first lookup.
        self._rows: list[dict[str, float] | None] = [None] * len(queries)

    def __len__(self) -> int:
        """The number of edges."""
        return len(self.spans)

    def row(self, key: str) -> dict[str, float] | None:
        """Span → drop similarity for the logged query stored under
        ``key``; None when the log holds no edge of it."""
        index = self.index.get(key)
        if index is None:
            return None
        row = self._rows[index]
        if row is None:
            start, end = self.offsets[index], self.offsets[index + 1]
            row = self._rows[index] = dict(
                zip(self.spans[start:end], self.similarities[start:end])
            )
        return row


def build_drop_edges(log: QueryLog) -> DropEdges:
    """The :class:`DropEdges` of ``log``: one pass over its records,
    with cosine norms memoized by a :class:`SimilarityCache`.

    Spans run shortest first and left to right within a length, so a
    repeated span is met first at its first occurrence — the one
    ``_remove_segment`` removes — and its later occurrences are skipped.
    """
    view = SimilarityCache(log)
    queries: list[str] = []
    offsets = [0]
    spans: list[str] = []
    similarities: list[float] = []
    for record in log.records():
        query = record.query
        tokens = query.split()
        size = len(tokens)
        if size < 2:
            continue
        # A stored query is in normal form. An ASCII one is then made of
        # [a-z0-9$%.'] and single spaces, and so is every query left by
        # dropping some of its tokens: normalize_fast keeps those as
        # they are, so the lookup can skip it.
        lookup = log.lookup_exact if query.isascii() else log.lookup
        # heads[i] joins the first i tokens, tails[i] the tokens from i on.
        heads = [" ".join(tokens[:i]) for i in range(size + 1)]
        tails = [" ".join(tokens[i:]) for i in range(size + 1)]
        seen: set[str] | None = set() if len(set(tokens)) < size else None
        for length in range(1, size):
            for start in range(size - length + 1):
                end = start + length
                span = tokens[start] if length == 1 else " ".join(tokens[start:end])
                if seen is not None:
                    if span in seen:
                        continue
                    seen.add(span)
                head, tail = heads[start], tails[end]
                reduced = lookup(f"{head} {tail}" if head and tail else head or tail)
                if reduced is not None:
                    spans.append(span)
                    similarities.append(view.click_similarity(record, reduced))
        if len(spans) > offsets[-1]:
            queries.append(query)
            offsets.append(len(spans))
    return DropEdges(queries, offsets, spans, similarities)


class TableStatistics(_TermIdf):
    """What the constraint features read of a log, as tables.

    :meth:`drop_similarity` answers from :class:`DropEdges` and
    :meth:`phrase_idf` from the document-frequency counter, equal to
    :class:`LogStatistics` on both for a query in normal form (a
    ``Detection``'s query and its segments). The click log itself is not
    kept: this is what a compiled detector and its snapshot carry. The
    tables are a copy of the statistics when they were taken; take them
    again after the log changes.
    """

    def __init__(
        self,
        edges: DropEdges,
        document_frequencies: Mapping[str, int],
        num_queries: int,
    ) -> None:
        self.edges = edges
        self._term_query_freq = document_frequencies
        self._num_queries = num_queries

    @classmethod
    def of(cls, stats: "LogStatistics | TableStatistics") -> "TableStatistics":
        """``stats`` taken as tables (tables are returned as they are)."""
        if isinstance(stats, TableStatistics):
            return stats
        return cls(
            build_drop_edges(stats.log),
            dict(stats.document_frequencies),
            stats.num_queries,
        )

    def drop_similarity(self, query: str, without: str) -> float | None:
        """:meth:`LogStatistics.drop_similarity` from the edge table."""
        row = self.edges.row(normalize_fast(query))
        if row is None:
            return None
        return row.get(" ".join(without.split()))


def _remove_segment(query: str, segment: str) -> str | None:
    """Remove one occurrence of a (token-aligned) segment from a query."""
    tokens = query.split()
    seg_tokens = segment.split()
    n = len(seg_tokens)
    if n == 0 or n >= len(tokens):
        return None
    for start in range(len(tokens) - n + 1):
        if tokens[start : start + n] == seg_tokens:
            remaining = tokens[:start] + tokens[start + n :]
            return " ".join(remaining)
    return None
