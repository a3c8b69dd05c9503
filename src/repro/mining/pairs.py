"""Head-modifier pair miners.

The miners read only the observable log interface (records, frequencies,
clicks) — never gold labels. Their output is the training signal for the
concept-pattern derivation in :mod:`repro.core.concept_patterns`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.errors import MiningError
from repro.querylog.models import QueryLog, QueryRecord
from repro.querylog.stats import SimilarityCache
from repro.text.lexicon import Lexicon, default_lexicon


@dataclass(frozen=True, slots=True)
class MinedPair:
    """Evidence that ``modifier`` modifies ``head`` at the instance level.

    ``support`` is query volume backing the pair; ``source`` names the
    miner that produced it.
    """

    modifier: str
    head: str
    support: float
    source: str

    def __post_init__(self) -> None:
        if self.support <= 0:
            raise MiningError("pair support must be positive")

    def __reduce__(self):
        # Constructor arguments, not the dataclass getstate/setstate
        # pair: training states hold tens of thousands of these, and
        # this form pickles and unpickles in C.
        return type(self), (self.modifier, self.head, self.support, self.source)


@dataclass(frozen=True)
class MiningConfig:
    """Shared miner thresholds."""

    min_query_frequency: int = 2
    max_query_tokens: int = 6
    #: Minimum host+path click similarity between the query and the
    #: head-side sub-query for the deletion test to accept a split.
    min_head_similarity: float = 0.6
    #: The head side must beat the modifier side by at least this margin
    #: (when the modifier side exists in the log at all).
    min_similarity_margin: float = 0.2
    min_pair_support: float = 3.0


class PairCollection:
    """Aggregated mined pairs: ``(modifier, head) -> total support``."""

    def __init__(self) -> None:
        self._support: dict[tuple[str, str], float] = {}
        self._sources: dict[tuple[str, str], set[str]] = {}

    def add(self, pair: MinedPair) -> None:
        """Accumulate one piece of mined-pair evidence."""
        key = (pair.modifier, pair.head)
        self._support[key] = self._support.get(key, 0.0) + pair.support
        self._sources.setdefault(key, set()).add(pair.source)

    def support(self, modifier: str, head: str) -> float:
        """Total support of ``(modifier, head)`` (0 when absent)."""
        return self._support.get((modifier, head), 0.0)

    def sources(self, modifier: str, head: str) -> frozenset[str]:
        """Names of the miners that produced this pair."""
        return frozenset(self._sources.get((modifier, head), ()))

    def filtered(self, min_support: float) -> "PairCollection":
        """A copy keeping only pairs at or above ``min_support``."""
        result = PairCollection()
        for key, support in self._support.items():
            if support >= min_support:
                result._support[key] = support
                result._sources[key] = set(self._sources.get(key, ()))
        return result

    @classmethod
    def from_support(
        cls,
        support: dict[tuple[str, str], float],
        source: str | None = None,
    ) -> "PairCollection":
        """Rebuild a collection from a raw support mapping.

        Used by the runtime snapshot loader, which persists only the
        supports (miner provenance is training-time metadata). ``source``
        optionally labels every pair; with None no pair has a source, and
        no per-pair source set is allocated (a loaded snapshot never
        reads them).
        """
        collection = cls()
        collection._support.update(support)
        if source is not None:
            for key in support:
                collection._sources[key] = {source}
        return collection

    def support_map(self) -> dict[tuple[str, str], float]:
        """The raw ``(modifier, head) → support`` mapping.

        Exposed for the compiled runtime, which binds the dict directly
        into its hot path instead of paying a method call per lookup.
        Callers must treat it as read-only.
        """
        return self._support

    def items(self) -> Iterator[tuple[str, str, float]]:
        """Yield ``(modifier, head, support)`` triples."""
        for (modifier, head), support in self._support.items():
            yield modifier, head, support

    def top(self, n: int) -> list[tuple[str, str, float]]:
        """The ``n`` highest-support pairs, best first (deterministic)."""
        return sorted(self.items(), key=lambda t: (-t[2], t[0], t[1]))[:n]

    @property
    def total_support(self) -> float:
        """Sum of support over all pairs."""
        return sum(self._support.values())

    def __len__(self) -> int:
        return len(self._support)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._support

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write the pairs as TSV (gzip when the suffix is ``.gz``)."""
        import gzip
        import os
        import tempfile
        from pathlib import Path

        path = Path(path)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        os.close(fd)
        tmp = Path(tmp_name)
        opener = gzip.open if path.suffix == ".gz" else open
        try:
            with opener(tmp, "wt", encoding="utf-8") as out:
                out.write("# repro-pairs v1\n")
                for modifier, head, support in sorted(self.items()):
                    sources = ",".join(sorted(self.sources(modifier, head)))
                    out.write(f"{modifier}\t{head}\t{support!r}\t{sources}\n")
            tmp.replace(path)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path) -> "PairCollection":
        """Read a collection written by :meth:`save`.

        Raises :class:`MiningError` on malformed or truncated files.
        """
        from pathlib import Path

        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(path)
        try:
            return cls._load(path)
        except (EOFError, OSError, UnicodeDecodeError) as exc:
            raise MiningError(f"{path}: unreadable pair file ({exc})") from exc

    @classmethod
    def _load(cls, path) -> "PairCollection":
        import gzip

        opener = gzip.open if path.suffix == ".gz" else open
        collection = cls()
        with opener(path, "rt", encoding="utf-8") as handle:
            header = handle.readline().rstrip("\n")
            if header != "# repro-pairs v1":
                raise MiningError(f"{path}: not a pair file (header {header!r})")
            for line_no, line in enumerate(handle, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 4:
                    raise MiningError(f"{path}:{line_no}: malformed pair line")
                modifier, head, support_text, sources = fields
                try:
                    support = float(support_text)
                except ValueError as exc:
                    raise MiningError(
                        f"{path}:{line_no}: bad support {support_text!r}"
                    ) from exc
                collection._support[(modifier, head)] = support
                collection._sources[(modifier, head)] = set(
                    s for s in sources.split(",") if s
                )
        return collection


class DeletionMiner:
    """Mines pairs with the sub-query click-overlap (deletion) test.

    For each multi-token query, every binary token split (left, right) is
    tested in both (modifier, head) orientations. An orientation is
    accepted when the head side exists as a standalone query whose clicks
    point at the same pages (host+path) as the full query, and the modifier
    side either is absent from the log or points elsewhere.

    The log is read through a :class:`~repro.querylog.stats.SimilarityCache`,
    so each record's host+path histogram is collapsed once per log state,
    not once per orientation test.
    """

    def __init__(
        self,
        config: MiningConfig | None = None,
        lexicon: Lexicon | None = None,
    ) -> None:
        self._config = config or MiningConfig()
        self._lexicon = lexicon or default_lexicon()
        #: Words that never form an instance: subjective, function and
        #: intent-verb words.
        self._fillers = (
            self._lexicon.subjective
            | self._lexicon.stopwords
            | self._lexicon.intent_verbs
        )
        self._non_instance: dict[str, bool] = {}

    def mine(self, log: QueryLog) -> Iterator[MinedPair]:
        """Yield pairs from every eligible query of ``log``."""
        view = SimilarityCache(log)
        for record in log.records():
            yield from self.mine_record(view, record)

    def mine_record(
        self, view: SimilarityCache, record: QueryRecord
    ) -> Iterator[MinedPair]:
        """Yield pairs for a single record (the unit incremental folds cache).

        ``view`` is a similarity cache over the log ``record`` belongs to.
        """
        cfg = self._config
        tokens = record.tokens
        if (
            record.frequency < cfg.min_query_frequency
            or not 2 <= len(tokens) <= cfg.max_query_tokens
            or not record.clicks
        ):
            return
        for split in range(1, len(tokens)):
            left = " ".join(tokens[:split])
            right = " ".join(tokens[split:])
            yield from self._test_orientation(view, record, modifier=left, head=right)
            yield from self._test_orientation(view, record, modifier=right, head=left)

    def _test_orientation(
        self, view: SimilarityCache, record: QueryRecord, modifier: str, head: str
    ) -> list[MinedPair]:
        """The pairs one orientation yields (none when the test rejects it)."""
        cfg = self._config
        if self._is_non_instance(modifier):
            return []
        head_record = view.lookup(head)
        if head_record is None or not head_record.clicks:
            return []
        head_sim = view.host_path_similarity(record, head_record)
        if head_sim < cfg.min_head_similarity:
            return []
        modifier_record = view.lookup(modifier)
        if modifier_record is not None and modifier_record.clicks:
            modifier_sim = view.host_path_similarity(record, modifier_record)
            if head_sim - modifier_sim < cfg.min_similarity_margin:
                return []
        support = float(record.frequency)
        return [
            MinedPair(component, head, support=support, source="deletion")
            for component in self._modifier_components(view, modifier)
        ]

    def _modifier_components(
        self, view: SimilarityCache, modifier: str
    ) -> Iterator[str]:
        """Clean and decompose a raw modifier side into instance phrases.

        Function/subjective words are stripped, then the remainder is
        greedily segmented into the longest sub-phrases that exist as
        standalone log queries — so "good vertigo" yields "vertigo", and a
        two-constraint side like "meatloaf whole30" yields both pieces.
        """
        fillers = self._fillers
        words = [w for w in modifier.split() if w not in fillers]
        i = 0
        while i < len(words):
            matched = None
            for j in range(len(words), i, -1):
                candidate = " ".join(words[i:j])
                if j - i == 1 or view.lookup(candidate) is not None:
                    matched = candidate
                    i = j
                    break
            if matched is None:  # pragma: no cover - j loop always matches at j=i+1
                i += 1
                continue
            yield matched

    def _is_non_instance(self, phrase: str) -> bool:
        """Phrases made only of subjective/function words are not instances."""
        verdict = self._non_instance.get(phrase)
        if verdict is None:
            verdict = all(w in self._fillers for w in phrase.split())
            self._non_instance[phrase] = verdict
        return verdict


class LexicalPatternMiner:
    """Mines pairs from explicit connector surfaces ("cases for iphone 5s").

    In "H ``for|in`` M", the left side is the head and the right side the
    modifier — direct lexical evidence requiring no click data, which is
    why the paper can bootstrap from raw query strings.
    """

    _CONNECTORS = ("for", "in")

    def __init__(
        self,
        config: MiningConfig | None = None,
        lexicon: Lexicon | None = None,
    ) -> None:
        self._config = config or MiningConfig()
        self._lexicon = lexicon or default_lexicon()

    def mine(self, log: QueryLog) -> Iterator[MinedPair]:
        """Yield pairs from connector surfaces in ``log``."""
        view = SimilarityCache(log)
        for record in log.records():
            yield from self.mine_record(view, record)

    def mine_record(
        self, view: SimilarityCache, record: QueryRecord
    ) -> Iterator[MinedPair]:
        """Yield pairs for a single record (the unit incremental folds cache).

        Takes the same ``view`` as :meth:`DeletionMiner.mine_record` so
        every miner is driven one way; connector surfaces need no click
        data, so the view is not read.
        """
        cfg = self._config
        if record.frequency < cfg.min_query_frequency:
            return
        tokens = record.tokens
        if not 3 <= len(tokens) <= cfg.max_query_tokens:
            return
        yield from self._mine_tokens(tokens, record.frequency)

    def _mine_tokens(self, tokens: tuple[str, ...], frequency: int) -> Iterator[MinedPair]:
        for i, token in enumerate(tokens):
            if token not in self._CONNECTORS or i == 0 or i == len(tokens) - 1:
                continue
            head = " ".join(self._strip_context(tokens[:i]))
            modifier = " ".join(tokens[i + 1 :])
            if not head or not modifier or head == modifier:
                continue
            yield MinedPair(modifier, head, support=float(frequency), source="lexical")
            return  # one connector per query; nested connectors are noise

    def _strip_context(self, tokens: tuple[str, ...]) -> list[str]:
        """Drop leading subjective/verb words: "best cases for X" → "cases"."""
        words = list(tokens)
        while words and (
            self._lexicon.is_subjective(words[0])
            or words[0] in self._lexicon.intent_verbs
            or self._lexicon.is_stopword(words[0])
        ):
            words = words[1:]
        return words


def default_miners(config: MiningConfig) -> tuple:
    """The miner lineup of the offline pipeline, in replay order."""
    return (DeletionMiner(config), LexicalPatternMiner(config))


def mine_pairs(
    log: QueryLog,
    config: MiningConfig | None = None,
    miners: Iterable | None = None,
) -> PairCollection:
    """Run all miners over ``log`` and return filtered, merged pairs."""
    config = config or MiningConfig()
    if miners is None:
        miners = default_miners(config)
    collection = PairCollection()
    for miner in miners:
        for pair in miner.mine(log):
            collection.add(pair)
    return collection.filtered(config.min_pair_support)
