"""Query-log record types.

:class:`QueryRecord` is what a real log provides per distinct query string:
frequency and a clicked-URL histogram. :class:`GoldLabel` is the generator's
ground truth; it lives in a separate table so mining code *cannot* touch it
by construction.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from repro.errors import QueryLogError
from repro.text.normalizer import normalize_fast


@dataclass(frozen=True, slots=True)
class QueryRecord:
    """One distinct query string with aggregate behaviour.

    ``clicks`` maps clicked URL → click count across all impressions.
    """

    query: str
    frequency: int
    clicks: Mapping[str, int]

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise QueryLogError(f"frequency must be positive: {self.query!r}")

    def __reduce__(self):
        # Constructor arguments, not the dataclass getstate/setstate
        # pair: a training state holds one record per distinct query, and
        # this form pickles and unpickles in C.
        return type(self), (self.query, self.frequency, self.clicks)

    @property
    def tokens(self) -> tuple[str, ...]:
        """The query's tokens (it is stored normalized)."""
        return tuple(self.query.split())

    @property
    def total_clicks(self) -> int:
        """Total clicks across all result URLs."""
        return sum(self.clicks.values())


@dataclass(frozen=True, slots=True)
class SessionRecord:
    """An ordered sequence of queries issued by one user in one sitting."""

    session_id: str
    queries: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.queries) < 1:
            raise QueryLogError("session must contain at least one query")

    def reformulation_pairs(self) -> Iterator[tuple[str, str]]:
        """Consecutive (earlier, later) query pairs within the session."""
        for i in range(len(self.queries) - 1):
            yield self.queries[i], self.queries[i + 1]


@dataclass(frozen=True, slots=True)
class GoldModifier:
    """Ground truth for one modifier of a query."""

    surface: str
    is_constraint: bool
    concept: str | None = None


@dataclass(frozen=True, slots=True)
class GoldLabel:
    """Ground truth for one query: its head, modifiers, and domain."""

    head: str
    modifiers: tuple[GoldModifier, ...]
    domain: str
    head_concept: str | None = None

    @property
    def constraint_surfaces(self) -> frozenset[str]:
        """Surfaces of the constraint modifiers."""
        return frozenset(m.surface for m in self.modifiers if m.is_constraint)

    @property
    def modifier_surfaces(self) -> frozenset[str]:
        """Surfaces of all modifiers."""
        return frozenset(m.surface for m in self.modifiers)


class QueryLog:
    """An in-memory query log: records, sessions, and (separate) gold labels."""

    def __init__(self) -> None:
        self._records: dict[str, QueryRecord] = {}
        self._sessions: list[SessionRecord] = []
        self._gold: dict[str, GoldLabel] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_record(
        self,
        query: str,
        frequency: int,
        clicks: Mapping[str, int],
        gold: GoldLabel | None = None,
    ) -> None:
        """Add (or merge) observations of one query string."""
        key = normalize_fast(query)
        if not key:
            raise QueryLogError("query must be non-empty after normalization")
        existing = self._records.get(key)
        if existing is None:
            self._records[key] = QueryRecord(key, frequency, dict(clicks))
        else:
            merged = dict(existing.clicks)
            for url, count in clicks.items():
                merged[url] = merged.get(url, 0) + count
            self._records[key] = QueryRecord(
                key, existing.frequency + frequency, merged
            )
        if gold is not None and key not in self._gold:
            # First writer wins: when two intents collide on one surface
            # string, the generator emits the more frequent one first.
            self._gold[key] = gold

    def add_session(self, session: SessionRecord) -> None:
        """Append one session record."""
        self._sessions.append(session)

    # ------------------------------------------------------------------
    # the "observable log" interface (what mining is allowed to see)
    # ------------------------------------------------------------------
    def lookup(self, query: str) -> QueryRecord | None:
        """Record for an exact (normalized) query string, if present."""
        return self._records.get(normalize_fast(query))

    def lookup_exact(self, key: str) -> QueryRecord | None:
        """Record stored under an *already-normalized* key.

        Hot-path variant of :meth:`lookup` for callers that have paid the
        normalization cost themselves (the incremental trainer's probe
        tracking resolves thousands of keys per fold).
        """
        return self._records.get(key)

    def records(self) -> Iterator[QueryRecord]:
        """Iterate over all query records."""
        yield from self._records.values()

    def sessions(self) -> Iterator[SessionRecord]:
        """Iterate over all session records."""
        yield from self._sessions

    @property
    def num_queries(self) -> int:
        """Number of distinct query strings."""
        return len(self._records)

    @property
    def num_sessions(self) -> int:
        """Number of sessions."""
        return len(self._sessions)

    @property
    def total_frequency(self) -> int:
        """Total query volume (sum of frequencies)."""
        return sum(r.frequency for r in self._records.values())

    # ------------------------------------------------------------------
    # ground truth (evaluation only — mining must not read this)
    # ------------------------------------------------------------------
    @property
    def gold_labels(self) -> Mapping[str, GoldLabel]:
        """Ground-truth labels by query (evaluation only)."""
        return self._gold

    def attach_gold(self, query: str, gold: GoldLabel) -> None:
        """Attach (or replace) the ground-truth label of a query."""
        key = normalize_fast(query)
        if key not in self._records:
            raise QueryLogError(f"cannot label unknown query {query!r}")
        self._gold[key] = gold

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryLog(queries={self.num_queries}, sessions={self.num_sessions}, "
            f"volume={self.total_frequency})"
        )
