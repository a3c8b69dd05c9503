"""The compiled detection runtime.

:class:`CompiledDetector` is a drop-in, *behaviour-identical* fast path
beside the readable reference :class:`~repro.core.detector.HeadModifierDetector`.
It inherits the reference control flow (candidate enumeration, connector
heuristic, fallbacks, result assembly) so the two paths cannot drift
structurally, and replaces only the hot inner computations:

- **Interned pattern matrix** — every concept in the
  :class:`~repro.core.concept_patterns.PatternTable` is interned to a
  dense integer id and the table is flattened into a CSR-style
  ``(modifier_id, head_id) → weight`` matrix (dense when small, sorted
  flat keys + binary search when large). A pattern lookup becomes an
  array ``take`` instead of dataclass construction + dict hashing + an
  O(table) ``max_weight`` recomputation.
- **Flattened typicality readings** — conceptualizations of every
  taxonomy instance/concept are precomputed at compile time into
  contiguous id/probability arrays; each phrase owns a slice. Runtime
  phrases outside the taxonomy fall back to the reference
  conceptualizer once and are memoized in a bounded LRU.
- **Interned flat scoring** — ``_pattern_score`` walks the
  ``top_k × top_k`` concept grid over prezipped ``(id, probability)``
  tuples and a flat-key weight map, in the reference iteration order,
  so scores are *bit-identical* to the reference loops. (At top-k ≈ 5
  the grids are so small that NumPy's per-call dispatch costs more than
  the arithmetic; the arrays remain the storage format, and
  :meth:`PatternMatrix.norm` is the vectorized gather the batch engine
  scores with.)
- **Compiled segmentation** — the Viterbi segmenter's span scoring is
  precomputed into plain dict lookups keyed by already-normalized
  tokens, eliminating the per-span regex re-normalization that
  dominates reference segmentation cost.
- **Constraint tables** — the paper's step 4 (constraint vs.
  non-constraint) runs through one :class:`ConstraintMemo` instead of
  :meth:`repro.core.constraints.ConstraintClassifier.annotate`
  rebuilding every detection afterwards. It reads
  :class:`ConstraintTables`, built once at compile time: each known
  phrase's modifier features and no-evidence decision (table A), and
  each logged query's drop similarities (table B), so serving reads no
  click log. A query's table-B row is looked up once per detection, and
  each other ``(modifier, drop_similarity, drop_evidence_missing)``
  decision is computed once with the reference arithmetic, so the flags
  stay bit-identical.
- **One memoized assembly** — scalar :meth:`CompiledDetector.detect` and
  the batch engine (:mod:`repro.runtime.vectorized`) key every term by
  one interned phrase id (:meth:`CompiledDetector._intern_phrases`):
  the row of the phrase in the compiled readings, in table A and in the
  engine's reading matrix. Heads and other terms are keyed by phrase id,
  modifiers by the packed (modifier id, head reading id, flag), and
  contextualized readings by (modifier id, head reading id); only text
  outside the id space is keyed by its string. Terms are immutable and a
  pure function of their key, so three memos share them across
  detections and paths, and both paths build a missing term with
  :meth:`CompiledDetector._term`.
- **Bounded memoization** — phrase readings, context bases, pair
  affinities, constraint decisions and terms are cached in memos sized
  by ``DetectorConfig.cache_size``.

Parity is enforced by ``tests/test_runtime_parity.py``: identical heads,
modifiers, constraints, methods, and scores on the full held-out
evaluation set.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.core.concept_patterns import PatternTable
from repro.core.conceptualizer import Conceptualizer
from repro.core.constraints import ConstraintClassifier
from repro.core.detector import (
    DetectedTerm,
    Detection,
    DetectorConfig,
    HeadModifierDetector,
    TermRole,
)
from repro.core.features import (
    FEATURE_NAMES,
    NO_DROP_EVIDENCE,
    ConstraintFeatureExtractor,
)
from repro.core.segmentation import (
    CONTENT_KINDS,
    KIND_CONNECTOR,
    KIND_INSTANCE,
    KIND_STOPWORD,
    KIND_SUBJECTIVE,
    KIND_VERB,
    KIND_WORD,
    Segment,
    Segmenter,
)
from repro.errors import ModelError
from repro.mining.pairs import PairCollection
from repro.querylog.stats import TableStatistics
from repro.runtime.automaton import SegmentationAutomaton
from repro.runtime.intern import UNKNOWN, Interner
from repro.taxonomy.store import ConceptTaxonomy
from repro.text.lexicon import Lexicon, default_lexicon
from repro.text.normalizer import normalize_fast, normalize_term
from repro.utils.lru import LruCache, remember
from repro.utils.mathx import normalize_distribution

#: Above this many (stride × stride) entries the pattern matrix switches
#: from a dense flat array to sorted-key binary search (~16 MB for the
#: dense normalized matrix at the limit).
DENSE_LIMIT = 2_000_000

#: Batches smaller than this take the scalar per-query loop instead of
#: the vectorized engine: NumPy's fixed per-batch dispatch cost beats
#: its per-query win below the crossover. Measured on the shipped
#: snapshot (classifier on; 2,048 distinct held-out queries per run in
#: batches of each size, median of 5 runs, 2-vCPU host): the engine
#: first wins between 24 and 32 texts on a fresh detector (21.7 vs
#: 20.7 µs/query at 24, 19.0 vs 20.9 at 32) and between 32 and 48 on
#: the same queries again (12.9 vs 11.1 at 32, 10.1 vs 11.1 at 48), so
#: 32 routes the serving path (cache-missed keys, effectively cold)
#: correctly while staying honest for warm batch tooling.
MIN_VECTORIZED_BATCH = 32

#: Segment kinds :meth:`CompiledDetector._finish` makes modifiers when a
#: head is present (reference ``HeadModifierDetector._finish``).
_MODIFIER_KINDS = CONTENT_KINDS | {KIND_SUBJECTIVE}

#: Term roles, as :meth:`CompiledDetector._terms` takes them; each role
#: has its own memo.
ROLE_HEAD, ROLE_MODIFIER, ROLE_OTHER = 0, 1, 2
#: Constraint flags as packed into a modifier's term key, and back.
FLAG_CODE = {False: 0, True: 1, None: 2}
FLAGS = (False, True, None)

_DROP_SIMILARITY = FEATURE_NAMES.index("drop_similarity")
_DROP_EVIDENCE_MISSING = FEATURE_NAMES.index("drop_evidence_missing")


def _memo_stats(size: int, capacity: int, hits: int, misses: int) -> dict:
    """A clear-when-full memo's counters in ``LruCache.stats`` form."""
    lookups = hits + misses
    return {
        "size": size,
        "capacity": capacity,
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / lookups if lookups else 0.0,
    }


class ConstraintTables:
    """The paper's step 4 as tables, built once per compiled detector.

    Of the 13 constraint features only ``drop_similarity`` and
    ``drop_evidence_missing`` depend on the query; the other 11 are a
    function of the modifier text. Two tables answer what the click log
    answered per query before:

    - **table A**, one row per phrase the detector knows
      (``_compiled_readings``, in that order): the 13-slot modifier
      vector with its two drop slots as placeholders (``vectors``), and
      the decision when the log holds no drop evidence (``decisions``),
      each scored by the classifier's own single-row ``predict_proba``
      (an N-row call is not bit-equal);
    - **table B**, ``statistics.edges``: every logged query's drop
      similarities (:class:`~repro.querylog.stats.DropEdges`), with the
      document frequencies phrases outside table A need for their IDF
      (:class:`~repro.querylog.stats.TableStatistics`; None when the
      classifier has no log bound).

    ``extractor`` is the classifier's feature extractor bound to
    ``statistics``. The tables copy the log statistics at compile time,
    so a detector compiled before the log changes keeps the old
    evidence: recompile after a fold.
    """

    def __init__(
        self,
        extractor: ConstraintFeatureExtractor,
        phrases: list[str],
        vectors: np.ndarray,
        decisions: list[bool],
    ) -> None:
        self.extractor = extractor
        self.statistics: TableStatistics | None = extractor.stats
        self.phrases = phrases
        self.vectors = vectors
        self.decisions = decisions

    @property
    def rows(self) -> dict[str, int]:
        """Phrase → table row, for inspection. A detector reads rows by
        phrase id, which is the row (``CompiledDetector._phrase_ids``)."""
        return dict(zip(self.phrases, range(len(self.phrases))))

    @classmethod
    def build(
        cls, classifier: ConstraintClassifier, phrases: list[str]
    ) -> "ConstraintTables":
        """Both tables for ``classifier`` over the known ``phrases``."""
        extractor = classifier.extractor
        if extractor.stats is not None:
            extractor = extractor.with_stats(TableStatistics.of(extractor.stats))
        vectors = np.empty((len(phrases), len(FEATURE_NAMES)), dtype=np.float64)
        decisions: list[bool] = []
        predict_proba = classifier.model.predict_proba
        for row, phrase in enumerate(phrases):
            features = extractor._modifier_vector(phrase)  # a fresh array
            vectors[row] = features
            features[_DROP_SIMILARITY], features[_DROP_EVIDENCE_MISSING] = (
                NO_DROP_EVIDENCE
            )
            decisions.append(
                float(predict_proba(features)[0]) >= classifier.threshold
            )
        return cls(extractor, phrases, vectors, decisions)


class ConstraintMemo:
    """Memoized twin of
    :meth:`repro.core.constraints.ConstraintClassifier.annotate`, reading
    :class:`ConstraintTables`.

    A detection looks its query's table-B row up once (:meth:`record`).
    A modifier with no edge there takes table A's no-evidence decision
    when it is a known phrase (``decisions[id]``, by phrase id); every
    other decision is memoized per ``(modifier, drop_similarity,
    drop_evidence_missing)``, and a miss runs exactly the reference
    arithmetic: a copy of the modifier's vector (table A's row, or one
    computed once per unknown phrase) with the two drop slots filled,
    scored by the classifier's own ``predict_proba`` — so flags are
    bit-identical.

    Both memos are bounded by ``capacity`` with the clear-when-full
    policy (:func:`~repro.utils.lru.remember`): a hit is one
    ``dict.get``. Moving them and the three term memos (then the batch
    engine's) to ``LruCache`` lowered perfbench ``batch-annotate``
    throughput from 32.2k to 29.2k q/s and raised its RSS from 71.6 to
    73.8 MiB over 6 interleaved pairs (see :mod:`repro.utils.lru`).
    """

    def __init__(
        self,
        classifier: ConstraintClassifier,
        tables: ConstraintTables,
        capacity: int,
    ) -> None:
        self._extractor = tables.extractor
        stats = tables.statistics
        self.edges = stats.edges if stats is not None else None
        self._table = tables.vectors
        #: Table A's no-evidence decisions, by phrase id.
        self.decisions = tables.decisions
        self._known = len(tables.decisions)
        self._predict_proba = classifier.model.predict_proba
        self._threshold = classifier.threshold
        self._capacity = capacity
        self._vectors: dict[str, np.ndarray] = {}
        self._decisions: dict[tuple[str, float, float], bool] = {}
        #: ``is_constraint`` answers (with the batch engine's table-A
        #: gathers), decisions scored, vectors computed.
        self.lookups = self.scored = self.computed = 0

    def record(self, query: str) -> dict[str, float] | None:
        """``query``'s table-B row (None when it has no edge or no log
        is bound). Call once per detection, before :meth:`is_constraint`.

        Table B is keyed like the log, by ``normalize_fast``. A
        detection's query already is that key: it is ``normalize_fast``
        output, and a speller only swaps whole tokens for taxonomy
        tokens, which are in normal form too."""
        edges = self.edges
        return edges.row(query) if edges is not None else None

    def is_constraint(
        self, row: dict[str, float] | None, modifier: str, key: int | str
    ) -> bool:
        """``ConstraintClassifier.is_constraint(query, modifier)``, given
        ``row = self.record(query)`` and the modifier's phrase id (its
        text when it has none) as ``key``."""
        self.lookups += 1
        similarity = row.get(modifier) if row is not None else None
        if similarity is None:
            if type(key) is int and key < self._known:
                return self.decisions[key]
            evidence = (modifier, *NO_DROP_EVIDENCE)
        else:
            evidence = (modifier, similarity, 0.0)
        decision = self._decisions.get(evidence)
        if decision is None:
            decision = self._score(evidence, key)
        return decision

    def _score(self, evidence: tuple[str, float, float], key: int | str) -> bool:
        self.scored += 1
        modifier = evidence[0]
        if type(key) is int and key < self._known:
            vector = self._table[key]
        else:
            vector = self._vectors.get(modifier)
            if vector is None:
                self.computed += 1
                vector = self._extractor._modifier_vector(modifier)
                remember(self._vectors, modifier, vector, self._capacity)
        features = vector.copy()
        features[_DROP_SIMILARITY] = evidence[1]
        features[_DROP_EVIDENCE_MISSING] = evidence[2]
        decision = float(self._predict_proba(features)[0]) >= self._threshold
        remember(self._decisions, evidence, decision, self._capacity)
        return decision

    def stats(self) -> dict[str, float]:
        """Decisions answered without scoring (``hits``: table A or the
        decision memo) vs. scored (``misses``), and the modifier vectors
        computed for phrases outside table A (``vectors``)."""
        stats = _memo_stats(
            len(self._decisions),
            self._capacity,
            self.lookups - self.scored,
            self.scored,
        )
        stats["vectors"] = self.computed
        return stats


class PatternMatrix:
    """The flattened, interned twin of
    :class:`repro.core.concept_patterns.PatternTable`.

    Weights live behind flat integer keys ``modifier_id * stride + head_id``
    where ``stride = len(interner) + 1``; the extra row/column is the
    all-zero slot for concepts outside the table, so unknown concepts
    contribute exactly the 0.0 the reference path's dict ``.get`` returns.

    Two weight views are kept because the reference path uses both:
    raw weights (:meth:`repro.core.concept_patterns.PatternTable.weight`,
    context disambiguation) as the ``raw_map`` dict, and normalized ones
    (``PatternTable.score`` = weight / max weight, head scoring) as the
    ``norm_map`` dict for scalar scoring plus an array behind
    :meth:`norm` for the batch engine's gathers.
    """

    def __init__(
        self,
        patterns: PatternTable,
        interner: Interner,
        dense_limit: int = DENSE_LIMIT,
    ) -> None:
        self.stride = len(interner) + 1
        self.zero_id = len(interner)
        max_weight = patterns.max_weight
        keys: list[int] = []
        raw: list[float] = []
        for pattern, weight in patterns.items():
            modifier_id = interner.id_of(pattern.modifier_concept)
            head_id = interner.id_of(pattern.head_concept)
            if modifier_id == UNKNOWN or head_id == UNKNOWN:  # pragma: no cover
                continue  # interner is built from this table; defensive only
            keys.append(modifier_id * self.stride + head_id)
            raw.append(weight)
        key_array = np.asarray(keys, dtype=np.int64)
        raw_array = np.asarray(raw, dtype=np.float64)
        # The same division the reference path performs per lookup, done
        # once per entry here — identical floats either way.
        norm_array = raw_array / max_weight if max_weight > 0 else raw_array.copy()
        self._install(
            key_array,
            raw_array,
            norm_array,
            dense=self.stride * self.stride <= dense_limit,
        )

    @classmethod
    def from_arrays(
        cls,
        keys: np.ndarray,
        raw: np.ndarray,
        norm: np.ndarray,
        stride: int,
        dense: bool,
    ) -> "PatternMatrix":
        """Rebuild a matrix from its flattened arrays (snapshot load path).

        ``keys``/``raw``/``norm`` may be read-only mmap views; they are
        referenced, not copied, except for the dense scatter."""
        matrix = cls.__new__(cls)
        matrix.stride = stride
        matrix.zero_id = stride - 1
        matrix._install(
            np.asarray(keys, dtype=np.int64),
            np.asarray(raw, dtype=np.float64),
            np.asarray(norm, dtype=np.float64),
            dense=dense,
        )
        return matrix

    def _install(
        self,
        key_array: np.ndarray,
        raw_array: np.ndarray,
        norm_array: np.ndarray,
        dense: bool,
    ) -> None:
        # Scalar fast path: one dict probe per (modifier, head) concept
        # pair beats tiny-array gathers in the per-query loops. Absent
        # keys mean weight 0.0, exactly like the reference dict ``.get``.
        self.raw_map: dict[int, float] = dict(
            zip(key_array.tolist(), raw_array.tolist())
        )
        self.norm_map: dict[int, float] = dict(
            zip(key_array.tolist(), norm_array.tolist())
        )
        self.dense = dense
        if self.dense:
            self._norm = np.zeros(self.stride * self.stride, dtype=np.float64)
            self._norm[key_array] = norm_array
        else:
            order = np.argsort(key_array)
            self._keys = key_array[order]
            self._norm = norm_array[order]

    def norm(self, keys: np.ndarray) -> np.ndarray:
        """Max-normalized weights behind flat ``keys`` (0.0 where absent)."""
        if self.dense:
            return self._norm[keys]
        if not len(self._keys):
            return np.zeros(len(keys), dtype=np.float64)
        positions = np.searchsorted(self._keys, keys)
        positions[positions >= len(self._keys)] = 0
        found = self._keys[positions] == keys
        return np.where(found, self._norm[positions], 0.0)


class PhraseReading:
    """One phrase's concept readings: strings for display, ids for math.

    Built in bulk by :meth:`table`. The ``concepts`` tuple is exactly what
    the reference :meth:`repro.core.conceptualizer.Conceptualizer.conceptualize`
    returns for the phrase — the parity suite pins the two.
    ``ids``/``probs`` are contiguous array slices (the compiled storage
    format); ``mod_items``/``head_items`` are the same data prezipped
    into flat tuples for the scalar scoring loop — ``mod_items`` carries
    the id pre-multiplied by the matrix stride so a pattern lookup is a
    single integer add.
    """

    __slots__ = ("concepts", "ids", "probs", "mod_items", "head_items")

    @classmethod
    def table(
        cls,
        phrases: list[str],
        concepts: list[str],
        offsets: list[int],
        ids: np.ndarray,
        probs: np.ndarray,
        stride: int,
    ) -> dict[str, "PhraseReading"]:
        """Every phrase's reading at once from the flat arrays (phrase
        ``i`` owns ``offsets[i]:offsets[i + 1]``; ``concepts`` holds the
        concept strings), each list converted once and then sliced."""
        id_list = ids.tolist()
        prob_list = probs.tolist()
        scaled = (ids * stride).tolist()
        readings: dict[str, PhraseReading] = {}
        for phrase, start, end in zip(phrases, offsets, offsets[1:]):
            reading = readings[phrase] = cls.__new__(cls)
            some_probs = prob_list[start:end]
            some_ids = id_list[start:end]
            reading.concepts = tuple(zip(concepts[start:end], some_probs))
            reading.ids = ids[start:end]
            reading.probs = probs[start:end]
            reading.mod_items = list(zip(scaled[start:end], some_ids, some_probs))
            reading.head_items = list(zip(some_ids, some_probs))
        return readings


class _ContextBase:
    """Precompiled ``Conceptualizer.context_base`` output.

    ``items`` preserves the reference dict's insertion order (it seeds
    the no-signal fallback); ``rows`` prezips each sense with its
    stride-scaled concept id for the rescoring loop.
    """

    __slots__ = ("items", "rows")

    def __init__(
        self,
        items: list[tuple[str, float]],
        rows: list[tuple[str, float, int]],
    ) -> None:
        self.items = items
        self.rows = rows


class CompiledSegmenter(Segmenter):
    """Reference Viterbi segmentation over precompiled span scores.

    :meth:`segment_tokens` runs the reference DP, tie-breaking and
    backtrack inline over dict lookups precomputed from the taxonomy
    and lexicon, in place of the reference ``_span_score`` and
    ``_kind_of`` hooks. Tokens reaching it are already normalized, so
    the only residual normalization case is a trailing period — handled
    on the miss path exactly as ``normalize_term`` would.
    """

    def __init__(
        self,
        taxonomy: ConceptTaxonomy | None = None,
        lexicon: Lexicon | None = None,
    ) -> None:
        super().__init__(taxonomy, lexicon)
        lex = self._lexicon
        # Reference priority is instance > subjective > connector > verb >
        # stopword > unknown; build in reverse so later wins.
        single: dict[str, float] = {}
        kind: dict[str, str] = {}
        for word in lex.stopwords:
            single[word] = 0.5
            kind[word] = KIND_STOPWORD
        for word in lex.intent_verbs:
            single[word] = 0.6
            kind[word] = KIND_VERB
        for word in lex.connectors:
            single[word] = 0.6
            kind[word] = KIND_CONNECTOR
        for word in lex.subjective:
            single[word] = 0.8
            kind[word] = KIND_SUBJECTIVE
        instance_single: dict[str, float] = {}
        multi: dict[str, float] = {}
        if taxonomy is not None:
            for phrase, total in taxonomy.iter_instance_totals():
                popularity = math.log1p(total)
                length = len(phrase.split())
                kind[phrase] = KIND_INSTANCE
                if length == 1:
                    score = 1.0 + 0.1 * popularity
                    single[phrase] = score
                    instance_single[phrase] = score
                else:
                    multi[phrase] = length**2 * (1.0 + 0.1 * popularity)
        self._single = single
        self._instance_single = instance_single
        self._multi = multi
        self._kind = kind
        # First tokens of multi-token instances: a span whose first token
        # is not here cannot be in ``multi`` (trailing-period stripping
        # only touches the last token), so the DP skips the join+probe.
        self._multi_first = {phrase.split()[0] for phrase in multi}

    def segment(self, text: str):
        # normalize_fast equals normalize, and skips the regex passes on
        # text already in normal form (every stored log query).
        return self.segment_tokens(normalize_fast(text).split())

    def segment_tokens(self, tokens: list[str]) -> list[Segment]:
        """Inlined reference Viterbi over the precompiled score tables.

        ``tokens`` must already be normalized (``normalize(text).split()``
        output — :meth:`segment` does exactly that). Identical DP, scores,
        and tie-breaking (ascending-start iteration, strict improvement)
        to the reference; only the per-span method dispatch and
        re-normalization are gone.
        """
        if not tokens:
            return []
        n = len(tokens)
        single = self._single
        instance_single = self._instance_single
        multi = self._multi
        multi_first = self._multi_first
        max_span = self._max_span
        best: list[tuple[float, int, int] | None] = [None] * (n + 1)
        best[0] = (0.0, 0, -1)
        for end in range(1, n + 1):
            entry_score = entry_segments = entry_start = None
            for start in range(max(0, end - max_span), end - 1):
                if tokens[start] not in multi_first:
                    continue
                prev = best[start]
                if prev is None:
                    continue
                phrase = " ".join(tokens[start:end])
                span_score = multi.get(phrase)
                if span_score is None:
                    if not phrase.endswith("."):
                        continue
                    span_score = multi.get(phrase.rstrip(". "))
                    if span_score is None:
                        continue
                score = prev[0] + span_score
                segments_left = prev[1] - 1
                if (
                    entry_score is None
                    or score > entry_score
                    or (score == entry_score and segments_left > entry_segments)
                ):
                    entry_score, entry_segments, entry_start = (
                        score,
                        segments_left,
                        start,
                    )
            prev = best[end - 1]
            if prev is not None:
                token = tokens[end - 1]
                token_score = single.get(token)
                if token_score is None:
                    token_score = 0.7
                    if token.endswith("."):
                        stripped = instance_single.get(token.rstrip(". "))
                        if stripped is not None:
                            token_score = stripped
                score = prev[0] + token_score
                segments_left = prev[1] - 1
                if (
                    entry_score is None
                    or score > entry_score
                    or (score == entry_score and segments_left > entry_segments)
                ):
                    entry_score, entry_segments, entry_start = (
                        score,
                        segments_left,
                        end - 1,
                    )
            if entry_score is not None:
                best[end] = (entry_score, entry_segments, entry_start)
        # Inlined _backtrack over the precompiled kind table.
        kind_map = self._kind
        segments: list[Segment] = []
        end = n
        while end > 0:
            entry = best[end]
            assert entry is not None  # every prefix is reachable via singles
            start = entry[2]
            phrase = tokens[start] if end - start == 1 else " ".join(tokens[start:end])
            kind = kind_map.get(phrase)
            if kind is None:
                kind = KIND_WORD
                if (
                    phrase.endswith(".")
                    and kind_map.get(phrase.rstrip(". ")) == KIND_INSTANCE
                ):
                    kind = KIND_INSTANCE
            segments.append(Segment(phrase, start, end, kind))
            end = start
        segments.reverse()
        return segments


class PhraseTables(NamedTuple):
    """The phrase-id tables a detector derives from its compiled state,
    built once by :meth:`build` and shipped in snapshots, so a load
    recomputes none of them.

    Phrase ids are :meth:`CompiledDetector._intern_phrases`': the known
    phrases in reading order, then the automaton's other tokens.
    """

    #: Per known phrase, the id of its readings among the distinct ones,
    #: numbered in order of first occurrence.
    reading_of: np.ndarray
    #: The same for its context base.
    base_of: np.ndarray
    #: Per trie state of the segmentation automaton, the id of the
    #: multi-token phrase it completes (-1 elsewhere).
    state_phrases: np.ndarray
    #: The instance score of every mined pair of two phrase ids, behind
    #: sorted ``modifier id * ids + head id`` keys (None without mined
    #: supports).
    instance_keys: np.ndarray | None
    instance_values: np.ndarray | None

    @classmethod
    def build(
        cls,
        readings: dict[str, PhraseReading],
        contexts: dict[str, _ContextBase],
        automaton: SegmentationAutomaton | None,
        support: dict[tuple[str, str], float] | None,
        smoothing: float,
    ) -> "PhraseTables":
        """The tables of a detector compiled to these structures."""
        phrase_ids, _ = _phrase_ids(readings, automaton)
        instance_keys = instance_values = None
        if support:
            scored = {}
            for modifier, head in support:
                modifier_id = phrase_ids.get(modifier)
                head_id = phrase_ids.get(head)
                if modifier_id is not None and head_id is not None:
                    scored[modifier_id * len(phrase_ids) + head_id] = _instance_score(
                        support, modifier, head, smoothing
                    )
            instance_keys = np.fromiter(scored, dtype=np.int64, count=len(scored))
            order = np.argsort(instance_keys)
            instance_keys = instance_keys[order]
            instance_values = np.fromiter(
                scored.values(), dtype=np.float64, count=len(scored)
            )[order]
        return cls(
            _first_seen_ids(reading.concepts for reading in readings.values()),
            _first_seen_ids(tuple(base.items) for base in contexts.values()),
            _state_phrases(automaton, phrase_ids),
            instance_keys,
            instance_values,
        )


def _first_seen_ids(keys) -> np.ndarray:
    """Each key's id among the distinct keys, numbered by first occurrence."""
    seen: dict = {}
    return np.fromiter((seen.setdefault(key, len(seen)) for key in keys), np.int64)


def _phrase_ids(
    readings: dict[str, PhraseReading], automaton: SegmentationAutomaton | None
) -> tuple[dict[str, int], list[int]]:
    """Phrase → id (:meth:`CompiledDetector._intern_phrases`), and the
    phrase id of each automaton token."""
    ids = dict(zip(readings, range(len(readings))))
    tokens = automaton.tokens if automaton is not None else ()
    return ids, [ids.setdefault(token, len(ids)) for token in tokens]


def _state_phrases(
    automaton: SegmentationAutomaton | None, phrase_ids: dict[str, int]
) -> np.ndarray:
    """Phrase id of each trie state that completes a multi-token phrase
    of ``phrase_ids`` (-1 elsewhere)."""
    if automaton is None:
        return np.empty(0, dtype=np.int64)
    edges = dict(zip(automaton.edge_keys.tolist(), automaton.edge_targets.tolist()))
    token_id = automaton.token_ids.get
    vsize = automaton.vsize
    state_pid = np.full(len(automaton.terminal), -1, dtype=np.int64)
    for phrase, pid in phrase_ids.items():
        tokens = phrase.split()
        if len(tokens) < 2 or " ".join(tokens) != phrase:
            continue
        state: int | None = 0
        for token in tokens:
            token_index = token_id(token)
            if token_index is None:
                break
            state = edges.get(state * vsize + token_index)
            if state is None:
                break
        else:
            state_pid[state] = pid
    return state_pid


def _instance_score(support, modifier: str, head: str, smoothing: float) -> float:
    """Reference ``HeadModifierDetector._instance_score`` over a support
    dict."""
    forward = support.get((modifier, head), 0.0)
    backward = support.get((head, modifier), 0.0)
    denominator = forward + backward + smoothing
    return forward / denominator if denominator > 0 else 0.0


class CompiledDetector(HeadModifierDetector):
    """Behaviour-identical detector running on compiled structures.

    Construct via :meth:`repro.core.model.HdmModel.compile` (preferred)
    or directly with the same arguments as the reference detector. The
    constraint classifier must be a
    :class:`~repro.core.constraints.ConstraintClassifier` (its step runs
    as :class:`ConstraintTables`) or None; run any other classifier on
    the reference detector.
    """

    def __init__(
        self,
        patterns: PatternTable,
        conceptualizer: Conceptualizer,
        instance_pairs: PairCollection | None = None,
        constraint_classifier: ConstraintClassifier | None = None,
        segmenter: Segmenter | None = None,
        lexicon: Lexicon | None = None,
        config: DetectorConfig | None = None,
        speller=None,
        dense_limit: int = DENSE_LIMIT,
    ) -> None:
        if constraint_classifier is not None and not isinstance(
            constraint_classifier, ConstraintClassifier
        ):
            kind = type(constraint_classifier).__name__
            raise ModelError(
                "the compiled detector runs the constraint step as tables and "
                f"needs a ConstraintClassifier, not {kind}; run other "
                "classifiers on the reference detector (model.detector())"
            )
        lexicon = lexicon or default_lexicon()
        if segmenter is None:
            segmenter = CompiledSegmenter(conceptualizer.taxonomy, lexicon)
        super().__init__(
            patterns,
            conceptualizer,
            instance_pairs=instance_pairs,
            constraint_classifier=constraint_classifier,
            segmenter=segmenter,
            lexicon=lexicon,
            config=config,
            speller=speller,
        )
        # The compile-time helpers read these; _assemble sets them again.
        self._interner = interner = Interner(sorted(patterns.concepts()))
        self._matrix = matrix = PatternMatrix(patterns, interner, dense_limit)
        self._zero_id = matrix.zero_id
        phrases = self._taxonomy_phrases(conceptualizer.taxonomy)
        readings, reading_table = self._precompute_readings(phrases)
        contexts = {phrase: self._fresh_context_base(phrase) for phrase in phrases}
        automaton = (
            SegmentationAutomaton.build(segmenter)
            if isinstance(segmenter, CompiledSegmenter)
            else None
        )
        support = instance_pairs.support_map() if instance_pairs is not None else None
        self._assemble(
            interner=interner,
            matrix=matrix,
            readings=readings,
            reading_table=reading_table,
            context_bases=contexts,
            constraint_tables=(
                ConstraintTables.build(constraint_classifier, phrases)
                if constraint_classifier is not None
                else None
            ),
            automaton=automaton,
            phrase_tables=PhraseTables.build(
                readings,
                contexts,
                automaton,
                support,
                self._config.instance_smoothing,
            ),
            snapshot_path=None,
        )

    @classmethod
    def _restore(
        cls,
        *,
        patterns: PatternTable,
        conceptualizer: Conceptualizer,
        instance_pairs: PairCollection | None,
        constraint_classifier: ConstraintClassifier | None,
        lexicon: Lexicon,
        config: DetectorConfig,
        speller,
        **compiled,
    ) -> "CompiledDetector":
        """A detector from already-compiled structures
        (:func:`repro.runtime.snapshot.load_snapshot`), skipping the
        whole-taxonomy precomputation that dominates ``__init__``;
        ``compiled`` are :meth:`_assemble`'s arguments."""
        self = cls.__new__(cls)
        HeadModifierDetector.__init__(
            self,
            patterns,
            conceptualizer,
            instance_pairs=instance_pairs,
            constraint_classifier=constraint_classifier,
            segmenter=CompiledSegmenter(conceptualizer.taxonomy, lexicon),
            lexicon=lexicon,
            config=config,
            speller=speller,
        )
        self._assemble(**compiled)
        return self

    def _assemble(
        self,
        *,
        interner: Interner,
        matrix: PatternMatrix,
        readings: dict[str, PhraseReading],
        reading_table: tuple[np.ndarray, np.ndarray, np.ndarray],
        context_bases: dict[str, _ContextBase],
        constraint_tables: ConstraintTables | None,
        automaton: SegmentationAutomaton | None,
        phrase_tables: PhraseTables,
        snapshot_path: str | None,
    ) -> None:
        """The one assembly of a detector from its compiled tables, for
        ``__init__`` (which compiles them) and :meth:`_restore` (which
        reads them from a snapshot). ``reading_table`` is the flat
        ``(offsets, ids, probs)`` arrays ``readings`` slice."""
        self._interner = interner
        self._matrix = matrix
        self._zero_id = matrix.zero_id
        self._concept_ids = interner.id_map()
        self._support_map = (
            self._pairs.support_map() if self._pairs is not None else None
        )
        self._compiled_readings = readings
        self._reading_table = reading_table
        self._compiled_context = context_bases
        self._constraint_tables = constraint_tables
        self._init_caches()
        # detect() can hand pre-split tokens straight to the compiled DP
        # only when the segmenter actually is the compiled one.
        self._fast_segmenter = isinstance(self._segmenter, CompiledSegmenter)
        self._automaton = automaton
        self._phrase_tables = phrase_tables
        self._intern_phrases()
        self._engine = None
        self._snapshot_path = snapshot_path

    def _init_caches(self) -> None:
        """Empty runtime caches, each bounded by ``config.cache_size``:
        the four LRUs, the constraint memo over the constraint tables
        (None without a classifier), and :meth:`_terms`' three term memos
        with their lookup and miss counters; :meth:`cache_stats` reports
        them all.
        Term keys are described at :meth:`_terms`."""
        size = self._config.cache_size
        self._reading_cache: LruCache[str, PhraseReading] = LruCache(size)
        self._context_cache: LruCache[str, _ContextBase] = LruCache(size)
        self._affinity_cache: LruCache[tuple[str, str], float] = LruCache(size)
        self._modifier_cache: LruCache[
            int | tuple, tuple[tuple[str, float], ...]
        ] = LruCache(size)
        tables = self._constraint_tables
        self._constraints = (
            ConstraintMemo(self._classifier, tables, size)
            if tables is not None
            else None
        )
        self._head_terms: dict[int | str, DetectedTerm] = {}
        self._modifier_terms: dict[int | tuple, DetectedTerm] = {}
        self._other_terms: dict[int | str, DetectedTerm] = {}
        #: The three memos by role code, and their item getters.
        self._term_memos = (self._head_terms, self._modifier_terms, self._other_terms)
        self._term_lookup = tuple(memo.__getitem__ for memo in self._term_memos)
        #: Term lookups (all, head, modifier) and misses (head,
        #: modifier, other): counted per call, and on misses only.
        self._term_counts = [0] * 6

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    @staticmethod
    def _taxonomy_phrases(taxonomy: ConceptTaxonomy) -> list[str]:
        """Every distinct instance/concept phrase, instances first."""
        phrases = [*taxonomy.iter_instances(), *taxonomy.iter_concepts()]
        return list(dict.fromkeys(phrases))

    def _intern_phrases(self) -> None:
        """The phrase id space every term and constraint key uses.

        Ids ``0 .. len(_compiled_readings) - 1`` are the known phrases in
        reading order, which is also the row order of table A and of the
        batch engine's reading matrix, so one id addresses all three.
        The batch automaton's other single tokens (lexicon words, tokens
        of multi-token instances) follow, so that only text outside the
        automaton's vocabulary is keyed by its string.

        A modifier's term depends on its head only through the head's
        readings, and many known phrases read alike (102 distinct
        readings over perfbench's 789 phrases), so modifier keys carry
        the head's reading id (:class:`PhraseTables`): known phrases with
        equal readings share one, every other id has its own.
        ``_reading_heads`` holds one phrase per reading id.

        A modifier's contextualized readings depend on the modifier only
        through its context base (``_compiled_context``; 102 distinct
        bases over the same 789 phrases), so known phrases with equal
        bases share one base id in ``_base_of`` and one
        :meth:`_modifier_concepts` memo entry per head reading."""
        tables = self._phrase_tables
        ids, self._token_pid = _phrase_ids(self._compiled_readings, self._automaton)
        self._phrase_ids = ids
        self._phrase_texts = list(ids)
        known = len(self._compiled_readings)
        others = len(ids) - known
        reading_of = tables.reading_of.tolist()
        heads: list[str] = []
        for phrase, reading in zip(self._compiled_readings, reading_of):
            if reading == len(heads):
                heads.append(phrase)
        reading_of.extend(range(len(heads), len(heads) + others))
        heads.extend(self._phrase_texts[known:])
        #: Phrase id → reading id, and reading id → a phrase reading so.
        self._reading_of = reading_of
        self._reading_heads = heads
        base_of = tables.base_of.tolist()
        bases = max(base_of, default=-1) + 1
        base_of.extend(range(bases, bases + others))
        #: Phrase id → context base id.
        self._base_of = base_of

    def _precompute_readings(
        self, phrases: list[str]
    ) -> tuple[dict[str, PhraseReading], tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Every known phrase's typicality readings, and the flat
        ``(offsets, ids, probabilities)`` arrays they are slices of."""
        bulk = self._conceptualizer.conceptualize_many(
            phrases, self._config.top_k_concepts
        )
        if self._config.hierarchy_discount > 0:
            bulk = [
                self._conceptualizer.expand_with_ancestors(
                    readings, self._config.hierarchy_discount
                )
                if readings
                else readings
                for readings in bulk
            ]
        offsets = [0]
        concepts: list[str] = []
        flat_ids: list[int] = []
        flat_probs: list[float] = []
        for readings in bulk:
            for concept, probability in readings:
                concepts.append(concept)
                flat_ids.append(self._id_or_zero(concept))
                flat_probs.append(probability)
            offsets.append(len(flat_ids))
        ids = np.asarray(flat_ids, dtype=np.int64)
        probs = np.asarray(flat_probs, dtype=np.float64)
        table = PhraseReading.table(
            phrases, concepts, offsets, ids, probs, self._matrix.stride
        )
        return table, (np.asarray(offsets, dtype=np.int64), ids, probs)

    def _fresh_context_base(self, phrase: str) -> _ContextBase:
        """Exactly the reference ``context_base`` computation, interned."""
        base_dict = self._conceptualizer.context_base(
            phrase, self._config.top_k_concepts
        )
        items = list(base_dict.items())
        stride = self._matrix.stride
        rows = [
            (concept, prior, self._id_or_zero(concept) * stride)
            for concept, prior in items
        ]
        return _ContextBase(items, rows)

    def _fresh_reading(self, phrase: str) -> tuple[tuple[str, float], ...]:
        """Exactly the reference ``_concepts_of`` computation, uncached."""
        readings = self._conceptualizer.conceptualize(
            phrase, self._config.top_k_concepts
        )
        if self._config.hierarchy_discount > 0 and readings:
            readings = self._conceptualizer.expand_with_ancestors(
                readings, self._config.hierarchy_discount
            )
        return tuple(readings)

    def _id_or_zero(self, concept: str) -> int:
        id_ = self._interner.id_of(concept)
        return self._zero_id if id_ == UNKNOWN else id_

    # ------------------------------------------------------------------
    # compiled hot paths (overrides)
    # ------------------------------------------------------------------
    def detect(self, text: str) -> Detection:
        """Reference ``detect``, minus one redundant normalization pass.

        The reference normalizes in ``detect`` and again inside
        ``Segmenter.segment``; normalization is idempotent, so handing the
        already-normalized tokens straight to the compiled DP changes
        nothing but the cost. Spelling correction routes through the
        segmenter's own normalization, exactly like the reference.
        """
        query = normalize_fast(text)
        if self._speller is not None:
            query = self._speller.correct(query)
        if self._fast_segmenter and self._speller is None:
            segments = self._segmenter.segment_tokens(query.split())
        else:
            segments = self._segmenter.segment(query)
        if not segments:
            return Detection(query=query, terms=(), score=0.0, method="empty")
        content = [s for s in segments if s.kind in CONTENT_KINDS]
        if not content:
            return self._finish(query, segments, None, 0.0, "structural")
        if len(content) == 1:
            head, score, method = content[0], 1.0, "single"
        else:
            head, score, method = self._choose_head(segments, content)
        return self._finish(query, segments, segments.index(head), score, method)

    def _finish(
        self,
        query: str,
        segments: list[Segment],
        head_position: int | None,
        score: float,
        method: str,
    ) -> Detection:
        """Reference ``_finish`` over ``segments``, or reference
        ``_all_structural`` when ``head_position`` is None.

        Each segment's term comes from the memo of its role, under the
        key :meth:`_terms` describes, and a miss builds it with
        :meth:`_term`; a modifier's constraint flag comes from the
        :class:`ConstraintMemo`."""
        phrase_id = self._phrase_ids.get
        head_memo, modifier_memo, other_memo = self._term_memos
        counts = self._term_counts
        counts[0] += len(segments)
        terms: list[DetectedTerm] = []
        if head_position is None:
            # Every term comes from the plain memo, whose rule makes
            # subjective segments modifiers with no readings.
            for segment in segments:
                key = phrase_id(segment.text, segment.text)
                term = other_memo.get(key)
                if term is None:
                    term = self._term(ROLE_OTHER, key, segment.kind)
                terms.append(term)
        else:
            memo = self._constraints
            row = memo.record(query) if memo is not None else None
            head_text = segments[head_position].text
            head_key = phrase_id(head_text, head_text)
            # _modifier_key, inlined for the common case of two ids.
            packed = type(head_key) is int
            if packed:
                head_reading = self._reading_of[head_key]
                readings = len(self._reading_heads)
            flag = None
            modifiers = 0
            for position, segment in enumerate(segments):
                text = segment.text
                kind = segment.kind
                key = phrase_id(text, text)
                if position == head_position:
                    role = ROLE_HEAD
                    term = head_memo.get(key)
                elif kind in _MODIFIER_KINDS:
                    role = ROLE_MODIFIER
                    modifiers += 1
                    if memo is not None:
                        flag = memo.is_constraint(row, text, key)
                    if packed and type(key) is int:
                        key = (key * readings + head_reading) * 3 + FLAG_CODE[flag]
                    else:
                        key = self._modifier_key(key, head_key, flag)
                    term = modifier_memo.get(key)
                else:
                    role = ROLE_OTHER
                    term = other_memo.get(key)
                if term is None:
                    term = self._term(role, key, kind)
                terms.append(term)
            counts[1] += 1
            counts[2] += modifiers
        return Detection(query, tuple(terms), score, method)

    def _modifier_key(self, key: int | str, head_key: int | str, flag) -> int | tuple:
        """A modifier's term key: its phrase id, its head's reading id
        (:meth:`_intern_phrases`) and its constraint flag packed into one
        int, or a tuple when either phrase has no id (keyed by its
        text)."""
        if type(head_key) is int:
            head_key = self._reading_of[head_key]
            if type(key) is int:
                return (key * len(self._reading_heads) + head_key) * 3 + FLAG_CODE[
                    flag
                ]
        return (key, head_key, flag)

    def _terms(
        self, roles: list[int], keys: list, kinds: list[str]
    ) -> list[DetectedTerm]:
        """The terms of many segments at once, in order (the batch
        engine's lookup): each from the memo of its ``role``
        (``ROLE_HEAD``, ``ROLE_MODIFIER``, ``ROLE_OTHER``) under its key.

        A head or other term is keyed by the segment's phrase id
        (:meth:`_intern_phrases`), or by its text when it has none; a
        modifier by :meth:`_modifier_key`, since its readings follow its
        head's and its flag its query's drop evidence. A segment's kind
        is a function of its text, so a key names one term. Terms are
        immutable and a pure function of their key, so the memos share
        repeated terms across detections and across scalar
        :meth:`detect` and the engine. A miss builds the term with
        :meth:`_term`, as :meth:`_finish` does."""
        counts = self._term_counts
        counts[0] += len(roles)
        counts[1] += roles.count(ROLE_HEAD)
        counts[2] += roles.count(ROLE_MODIFIER)
        lookup = self._term_lookup
        try:
            return [lookup[role](key) for role, key in zip(roles, keys)]
        except KeyError:
            pass  # a miss: build what is missing, in order
        memos = self._term_memos
        terms = []
        for role, key, kind in zip(roles, keys, kinds):
            term = memos[role].get(key)
            if term is None:
                term = self._term(role, key, kind)
            terms.append(term)
        return terms

    def _term(self, role: int, key, kind: str) -> DetectedTerm:
        """Build, count and memoize the term a lookup of ``key`` in the
        ``role`` memo missed, by reference ``_finish``'s rules: the one
        term-building path of both :meth:`_finish` and :meth:`_terms`.
        Each memo is bounded by ``cache_size`` (clear when full)."""
        self._term_counts[3 + role] += 1
        term = self._new_term(role, key, kind)
        remember(self._term_memos[role], key, term, self._config.cache_size)
        return term

    def _new_term(self, role: int, key, kind: str) -> DetectedTerm:
        texts = self._phrase_texts
        if role == ROLE_MODIFIER:
            readings = len(self._reading_heads)
            if type(key) is int:
                pair, code = divmod(key, 3)
                modifier, head = divmod(pair, readings)
                flag = FLAGS[code]
            else:
                modifier, head, flag = key
            if type(modifier) is int:
                text = texts[modifier]
                base = self._base_of[modifier]
                context = base * readings + head if type(head) is int else (base, head)
            else:
                text = modifier
                context = (modifier, head)
            head_text = self._reading_heads[head] if type(head) is int else head
            return DetectedTerm(
                text,
                TermRole.MODIFIER,
                kind,
                self._modifier_concepts(text, head_text, context),
                flag,
            )
        text = texts[key] if type(key) is int else key
        if role == ROLE_HEAD:
            return DetectedTerm(text, TermRole.HEAD, kind, self._concepts_of(text))
        role_of = TermRole.MODIFIER if kind == KIND_SUBJECTIVE else TermRole.OTHER
        return DetectedTerm(text, role_of, kind)

    def _reading(self, phrase: str) -> PhraseReading:
        # Segment texts are already normalized (modulo a trailing period),
        # so most phrases hit the compiled dict directly — one dict probe,
        # no LRU bookkeeping.
        reading = self._compiled_readings.get(phrase)
        if reading is not None:
            return reading
        reading = self._reading_cache.get(phrase)
        if reading is None:
            reading = self._compiled_readings.get(normalize_term(phrase))
            if reading is None:
                fresh = self._fresh_reading(phrase)
                concepts = [concept for concept, _ in fresh]
                reading = PhraseReading.table(
                    [phrase],
                    concepts,
                    [0, len(fresh)],
                    np.asarray(list(map(self._id_or_zero, concepts)), dtype=np.int64),
                    np.asarray([p for _, p in fresh], dtype=np.float64),
                    self._matrix.stride,
                )[phrase]
            self._reading_cache.put(phrase, reading)
        return reading

    def _concepts_of(self, phrase: str) -> tuple[tuple[str, float], ...]:
        return self._reading(phrase).concepts

    def _pair_affinity(self, modifier: str, head: str) -> float:
        key = (modifier, head)
        affinity = self._affinity_cache.get(key)
        if affinity is None:
            # Inlined reference _pair_affinity/_instance_score over the
            # bound support dict — identical arithmetic, no method hops.
            weight = self._config.instance_weight
            instance = 0.0
            support = self._support_map
            if support is not None:
                forward = support.get(key, 0.0)
                backward = support.get((head, modifier), 0.0)
                denominator = forward + backward + self._config.instance_smoothing
                instance = forward / denominator if denominator > 0 else 0.0
            pattern = self._pattern_score(modifier, head)
            affinity = weight * instance + (1 - weight) * pattern
            self._affinity_cache.put(key, affinity)
        return affinity

    def _pattern_score(self, modifier: str, head: str) -> float:
        mod_items = self._reading(modifier).mod_items
        head_items = self._reading(head).head_items
        norm_weight = self._matrix.norm_map.get
        score = 0.0
        # Reference iteration order and association (m_p·h_p·w, modifier
        # outer); skipping absent keys adds the same +0.0 the reference
        # adds explicitly, so the running sum is bit-identical.
        for m_scaled, m_id, m_prob in mod_items:
            for h_id, h_prob in head_items:
                if m_id == h_id:
                    continue
                weight = norm_weight(m_scaled + h_id)
                if weight is not None:
                    score += m_prob * h_prob * weight
        return score

    def _context_base(self, phrase: str) -> _ContextBase:
        base = self._compiled_context.get(phrase)
        if base is not None:
            return base
        base = self._context_cache.get(phrase)
        if base is None:
            base = self._compiled_context.get(normalize_term(phrase))
            if base is None:
                base = self._fresh_context_base(phrase)
            self._context_cache.put(phrase, base)
        return base

    def _modifier_concepts(
        self, phrase: str, head: str, context: int | tuple
    ) -> tuple[tuple[str, float], ...]:
        """Reference ``_modifier_concepts(phrase, dict(readings of
        head))``, memoized under ``context``: the packed (base id, head
        reading id) pair of :meth:`_intern_phrases`, or a tuple with the
        text of whichever has no id."""
        head_concepts = self._concepts_of(head)
        if not self._config.contextualize_modifiers or not head_concepts:
            return self._concepts_of(phrase)
        cached = self._modifier_cache.get(context)
        if cached is None:
            cached = self._contextualized_concepts(phrase, dict(head_concepts))
            self._modifier_cache.put(context, cached)
        return cached

    def _contextualized_concepts(
        self, phrase: str, head_concepts: dict[str, float]
    ) -> tuple[tuple[str, float], ...]:
        top_k = self._config.top_k_concepts
        base = self._context_base(phrase)
        if not base.rows:
            return ()
        concept_id = self._concept_ids.get
        zero_id = self._zero_id
        context = [
            (concept_id(concept, zero_id), probability)
            for concept, probability in head_concepts.items()
        ]
        raw_weight = self._matrix.raw_map.get
        epsilon = 1e-6
        rescored: dict[str, float] = {}
        # Reference evidence sum: context terms in head-dict order,
        # ``p_ctx · w`` association; absent keys add the reference's +0.0.
        for concept, prior, scaled in base.rows:
            evidence = 0.0
            for context_id, context_probability in context:
                weight = raw_weight(scaled + context_id)
                if weight is not None:
                    evidence += context_probability * weight
            rescored[concept] = prior * (epsilon + evidence)
        if all(value <= epsilon for value in rescored.values()):
            rescored = dict(base.items)  # no signal: keep the prior
        dist = normalize_distribution(rescored)
        return tuple(sorted(dist.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k])

    def cache_stats(self) -> dict[str, dict]:
        """Hit/miss counters of the runtime memos and caches.

        Every entry has ``size``/``capacity``/``hits``/``misses``/
        ``hit_rate``: the four LRUs (``readings``, ``context``,
        ``affinity``, ``modifier``), which phrases served from the
        precompiled taxonomy tables never touch; the three term memos of
        :meth:`_finish` (``head_terms``, ``modifier_terms``,
        ``other_terms``), which answer most lookups; and, with a
        constraint memo, ``constraints``: decisions answered from the
        constraint tables or the decision memo vs. scored, plus
        ``vectors``, the modifier vectors computed for phrases outside
        table A. ``repro detect --stats`` prints them.
        """
        size = self._config.cache_size
        lookups, heads, modifiers, *misses = self._term_counts
        stats = {
            "readings": self._reading_cache.stats(),
            "context": self._context_cache.stats(),
            "affinity": self._affinity_cache.stats(),
            "modifier": self._modifier_cache.stats(),
        }
        for name, memo, calls, missed in zip(
            ("head_terms", "modifier_terms", "other_terms"),
            (self._head_terms, self._modifier_terms, self._other_terms),
            (heads, modifiers, lookups - heads - modifiers),
            misses,
        ):
            stats[name] = _memo_stats(len(memo), size, calls - missed, missed)
        if self._constraints is not None:
            stats["constraints"] = self._constraints.stats()
        return stats

    # ------------------------------------------------------------------
    # snapshots & batch API
    # ------------------------------------------------------------------
    def save_snapshot(self, path, *, lineage: dict | None = None) -> dict:
        """Write this detector as a binary snapshot (see
        :mod:`repro.runtime.snapshot`) and return the written header.
        ``lineage`` is embedded as the optional lineage header key
        (see :mod:`repro.runtime.lineage`)."""
        from repro.runtime.snapshot import save_snapshot

        header = save_snapshot(self, path, lineage=lineage)
        self._snapshot_path = str(path)
        return header

    @classmethod
    def load_snapshot(cls, path) -> "CompiledDetector":
        """Reconstruct a detector from a snapshot file, sharing the
        mmap'd array payload instead of copying it."""
        from repro.runtime.snapshot import load_snapshot

        return load_snapshot(path)

    @property
    def snapshot_path(self) -> str | None:
        """The snapshot file this detector was loaded from or last saved
        to (None for a never-saved detector); the serving layer reads
        its lineage generation from it."""
        return self._snapshot_path

    @property
    def vectorized_batch(self) -> bool:
        """True when :meth:`detect_batch` runs the array-at-a-time
        :class:`~repro.runtime.vectorized.VectorizedDetector` engine
        (a segmentation automaton is present and no speller is bound)."""
        return self._automaton is not None and self._speller is None

    def _vectorized_engine(self):
        """The lazily built batch engine, or None when unavailable."""
        if not self.vectorized_batch:
            return None
        engine = self._engine
        if engine is None:
            from repro.runtime.vectorized import VectorizedDetector

            engine = self._engine = VectorizedDetector(self)
        return engine

    def detect_batch(self, texts):
        """Detect over ``texts`` in input order.

        Batches of at least :data:`MIN_VECTORIZED_BATCH` texts run
        through the vectorized engine
        (:class:`~repro.runtime.vectorized.VectorizedDetector`) —
        array-at-a-time segmentation and scoring, bit-identical to
        per-query :meth:`detect`. Smaller batches take the scalar loop:
        below the cutoff the engine's fixed NumPy dispatch cost costs
        more than it amortizes (see :data:`MIN_VECTORIZED_BATCH`)."""
        texts = list(texts)
        # Size first: a small batch never builds the engine, so a fresh
        # generation's lone serving request costs what ``detect`` costs.
        if len(texts) >= MIN_VECTORIZED_BATCH:
            engine = self._vectorized_engine()
            if engine is not None:
                return engine.detect_batch(texts)
        return super().detect_batch(texts)

    def close(self) -> None:
        """Release nothing: a compiled detector holds no processes or
        files (the snapshot mmap is freed with its last array view).
        Kept, with the context-manager methods, so callers can scope a
        detector uniformly with ``with``."""

    def __enter__(self) -> "CompiledDetector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __getstate__(self) -> dict:
        """Pickle without derived state the copy rebuilds lazily."""
        state = self.__dict__.copy()
        # The batch engine is derived state (rebuilt lazily from the
        # automaton on the first detect_batch in the new process).
        state["_engine"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Cache and memo contents are derived state too: the copy
        # refills its own.
        self._init_caches()

