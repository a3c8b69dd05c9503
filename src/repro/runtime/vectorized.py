"""Array-at-a-time batch detection over the interned vocabulary.

:class:`VectorizedDetector` runs whole batches through segmentation and
head scoring as NumPy array programs, where
:meth:`repro.runtime.compiled.CompiledDetector.detect` walks one query
at a time in Python. Both produce *bit-identical* :class:`Detection`
objects; the per-query compiled path stays in place as the parity twin
the property suite replays every batch against.

The pipeline, per batch of deduplicated queries:

1. **Token interning** — every token becomes a dense integer id from the
   :class:`SegmentationAutomaton`'s vocabulary; out-of-vocabulary tokens
   share one reserved id whose score/kind rows encode the reference
   unknown-token behaviour (score 0.7, kind ``word``). Each vocabulary
   token also has a phrase id
   (:meth:`~repro.runtime.compiled.CompiledDetector._intern_phrases`),
   the one key of everything after segmentation.
2. **Batched span matching** — multi-token taxonomy instances live in a
   token-id trie stored as flat sorted ``state·V + token`` edge arrays;
   one :func:`numpy.searchsorted` pass per depth finds every candidate
   span of every query simultaneously, and the terminal state of each.
3. **Lockstep Viterbi** — the segmentation DP advances over all queries
   at once, one token position per step, replicating the reference
   tie-break (strict score improvement, then fewer segments) with
   vectorized compares, so padded positions can never leak into a real
   query's backtrack. The backtrack runs in lockstep too and emits
   per-segment arrays: query, start, end, kind code and phrase id (a
   single token's from a token→phrase table, a multi-token span's from
   a trie-state→phrase table; only OOV tokens need their text).
4. **Gathered scoring** — content, connector and candidate rules run on
   the kind-code arrays. All candidate ``(modifier, head)`` pairs of the
   batch are laid out in reference order; reading rows are gathered by
   phrase id and scored against the
   :class:`~repro.runtime.compiled.PatternMatrix` with one ``bincount``
   per reduction. ``np.bincount`` accumulates strictly in input order,
   so each pair's ``Σ p_m·p_h·w`` and each candidate's affinity total
   add up in exactly the reference order — float-for-float the same
   partial sums, hence bit-identical scores. A pattern score depends on
   the two phrases' readings only, so it is cached by reading-id pair;
   instance scores are looked up by phrase-id pair.
5. **Argmax selection** — per-query argmax over ``-inf``-padded
   candidate rows; NumPy's first-wins argmax equals the reference
   stable sort by ``(-score, start)`` because candidates are emitted in
   ascending start order.
6. **Shared assembly** — roles and term keys are array programs too:
   each modifier's constraint flag is one gather of table A's
   no-evidence decisions, except in queries with a table-B row, which
   ask the constraint memo modifier by modifier. The keys go to
   :meth:`~repro.runtime.compiled.CompiledDetector._terms`, which reads
   the same term memos scalar ``detect`` reads and builds a missing term
   with the same function, so each ``Detection`` is one tuple of
   looked-up terms, the same objects either path returns.

Queries the array program cannot reproduce exactly (a ``.`` anywhere —
trailing-period stripping can merge spans — or extreme token counts)
fall back to the scalar compiled path, detection by detection, keeping
the bit-identity guarantee unconditional.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.detector import Detection
from repro.errors import ModelError
from repro.runtime.automaton import (
    _CODE_CONNECTOR,
    _CODE_INSTANCE,
    _CODE_SUBJECTIVE,
    _CODE_WORD,
    _NEG,
    KIND_BY_CODE,
    SegmentationAutomaton,
)
from repro.runtime.compiled import (
    FLAG_CODE,
    FLAGS,
    ROLE_HEAD,
    ROLE_MODIFIER,
    ROLE_OTHER,
    _instance_score,
)
from repro.text.normalizer import normalize_fast

_KIND_NAMES = np.asarray(KIND_BY_CODE, dtype=object)

#: Slots of the engine's pattern-score cache (a power of two).
_PATTERN_SLOTS = 1 << 15

#: Queries longer than this fall back to the scalar path: the lockstep
#: DP pads every query to the batch maximum, so one pathological input
#: must not widen the whole batch's arrays.
MAX_BATCH_TOKENS = 48


class VectorizedDetector:
    """Batched, bit-identical twin of
    :meth:`repro.runtime.compiled.CompiledDetector.detect` /
    :meth:`~repro.core.detector.HeadModifierDetector.detect_batch`.

    Construct with a compiled detector that owns a
    :class:`SegmentationAutomaton` (``CompiledDetector.detect_batch``
    does this lazily); :meth:`detect_batch` then answers whole batches
    through the array pipeline described in the module docstring.
    Detections come out element-wise identical — queries the arrays
    cannot reproduce exactly are transparently answered by the scalar
    path, so the guarantee holds for arbitrary input.

    The engine holds its detector by weak reference: the detector owns
    the engine, so a strong back-link would form a cycle that keeps a
    swapped-out model resident until the next cyclic collection. The
    caller keeps the detector alive for as long as it uses the engine;
    :meth:`detect_batch` on an engine whose detector was freed raises
    :class:`~repro.errors.ModelError`.
    """

    def __init__(self, detector) -> None:
        automaton = detector._automaton
        if automaton is None:
            raise ModelError(
                "vectorized detection needs a segmentation automaton; "
                "this detector was built (or snapshot-loaded) without one"
            )
        if detector._speller is not None:
            raise ModelError(
                "vectorized detection does not support a speller; "
                "use the per-query path"
            )
        self._det_ref = weakref.ref(detector)
        self._auto = automaton
        self._matrix = detector._matrix
        self._stride = detector._matrix.stride
        self._zero_id = detector._zero_id
        config = detector._config
        self._iw = config.instance_weight
        self._one_minus_iw = 1 - config.instance_weight
        self._smoothing = config.instance_smoothing
        self._min_evidence = config.min_evidence
        self._use_connector = config.use_connector_heuristic
        # Phrase ids (CompiledDetector._intern_phrases) of every
        # automaton token and of every terminal trie state
        # (PhraseTables); each table has a trailing -1 slot, so the OOV
        # token and state -1 map to "no id".
        tables = detector._phrase_tables
        self._texts = detector._phrase_texts
        self._token_pid = np.asarray(detector._token_pid + [-1], dtype=np.int64)
        self._state_pid = np.append(tables.state_phrases, -1)
        # Reading ids as modifier term keys pack them (trailing -1 slot).
        self._reading_of = np.asarray(detector._reading_of + [-1], dtype=np.int64)
        self._readings = len(detector._reading_heads)
        # Precomputed reading matrix: row ``id`` holds known phrase
        # ``id``'s padded concept ids / probabilities, scattered from the
        # flat reading arrays. Pad ids are the matrix zero row and pad
        # probabilities are 0.0, so padded cells contribute exactly the
        # +0.0 the scalar loop's skips never add.
        offsets, ids, probs = detector._reading_table
        counts = np.diff(offsets)
        self._known = len(counts)
        self._k = max(int(counts.max(initial=0)), 1)
        rows = np.repeat(np.arange(self._known), counts)
        columns = np.arange(len(ids)) - np.repeat(offsets[:-1], counts)
        self._ids_mat = np.full((self._known, self._k), self._zero_id, np.int64)
        self._probs_mat = np.zeros((self._known, self._k), np.float64)
        self._ids_mat[rows, columns] = ids
        self._probs_mat[rows, columns] = probs
        memo = detector._constraints
        #: Table A's no-evidence decisions as flag codes, by phrase id.
        self._decisions = (
            np.asarray(memo.decisions, dtype=np.int64) if memo is not None else None
        )
        # Reading ids of known phrases only (the reading matrix's rows),
        # and the direct-mapped pattern-score cache over their pairs.
        self._reading_row = self._reading_of.copy()
        self._reading_row[self._known : -1] = -1
        self._known_readings = int(self._reading_row.max()) + 1
        self._pattern_keys = np.full(_PATTERN_SLOTS, -1, dtype=np.int64)
        self._pattern_values = np.zeros(_PATTERN_SLOTS, dtype=np.float64)
        # Instance scores of every mined pair of two phrase ids.
        self._instance_keys = tables.instance_keys
        self._instance_values = tables.instance_values

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def detect_batch(self, texts) -> list[Detection]:
        """Detect ``texts`` in input order; element-wise identical to
        ``[detector.detect(t) for t in texts]`` on the per-query
        compiled path (:meth:`~repro.runtime.compiled.CompiledDetector.detect`).

        Duplicates are detected once and share the immutable
        :class:`Detection`, like the reference batch path.
        """
        det = self._det_ref()
        if det is None:
            raise ModelError(
                "the detector behind this batch engine was freed; "
                "keep a reference to it while the engine is in use"
            )
        texts = list(texts)
        unique = list(dict.fromkeys(texts))
        queries = list(map(normalize_fast, unique))
        token_lists = list(map(str.split, queries))
        results: dict[str, Detection] = {}
        odd = [
            index
            for index, (query, tokens) in enumerate(zip(queries, token_lists))
            if not tokens or "." in query or len(tokens) > MAX_BATCH_TOKENS
        ]
        if odd:
            for index in reversed(odd):
                text, query = unique.pop(index), queries.pop(index)
                if token_lists.pop(index):
                    # Trailing-period stripping re-normalizes span by
                    # span; only the scalar path reproduces it exactly.
                    results[text] = det.detect(text)
                else:
                    results[text] = Detection(
                        query=query, terms=(), score=0.0, method="empty"
                    )
        # Chunked so one huge batch cannot balloon the padded arrays.
        for start in range(0, len(unique), 4096):
            end = start + 4096
            results.update(
                zip(
                    unique[start:end],
                    self._detect_chunk(det, queries[start:end], token_lists[start:end]),
                )
            )
        return list(map(results.__getitem__, texts))

    # ------------------------------------------------------------------
    # the array pipeline
    # ------------------------------------------------------------------
    def _detect_chunk(
        self, det, queries: list[str], token_lists: list[list[str]]
    ) -> list[Detection]:
        """Every query's detection, from per-segment arrays: the
        reference control flow (content, connector, head choice, roles,
        flags) as array programs, then one :meth:`CompiledDetector._terms
        <repro.runtime.compiled.CompiledDetector._terms>` call for the
        whole chunk."""
        batch = len(queries)
        seg_query, seg_start, seg_end, kind, pid = self._segment_chunk(token_lists)
        total = len(seg_query)
        offsets = np.zeros(batch + 1, dtype=np.int64)
        np.bincount(seg_query, minlength=batch).cumsum(out=offsets[1:])
        texts = self._texts

        def text_of(index: int) -> str:
            """A segment's text (only segments without a phrase id need
            their tokens)."""
            phrase = int(pid[index])
            if phrase >= 0:
                return texts[phrase]
            tokens = token_lists[int(seg_query[index])]
            return " ".join(tokens[int(seg_start[index]) : int(seg_end[index])])

        # Content segments, query by query in segment order.
        content = (kind == _CODE_INSTANCE) | (kind == _CODE_WORD)
        content_at = content.nonzero()[0]
        n_content = np.bincount(seg_query[content_at], minlength=batch)
        content_first = np.zeros(batch + 1, dtype=np.int64)
        n_content.cumsum(out=content_first[1:])
        # Reference restriction: one connector with both sides
        # non-empty, and content on the left — candidates become that
        # (possibly complete) prefix of the content list.
        candidates = n_content
        restricted = np.zeros(batch, dtype=bool)
        if self._use_connector:
            connector_at = (kind == _CODE_CONNECTOR).nonzero()[0]
            connector_query = seg_query[connector_at]
            n_connectors = np.bincount(connector_query, minlength=batch)
            position = np.full(batch, -1, dtype=np.int64)
            position[connector_query] = connector_at - offsets[connector_query]
            local = np.arange(total, dtype=np.int64) - offsets[seg_query]
            left = np.bincount(
                seg_query[content & (local < position[seg_query])], minlength=batch
            )
            restricted = (
                (n_connectors == 1)
                & (position > 0)
                & (position < offsets[1:] - offsets[:-1] - 1)
                & (left > 0)
            )
            candidates = np.where(restricted, left, n_content)

        head = np.full(batch, -1, dtype=np.int64)
        score = np.zeros(batch, dtype=np.float64)
        method = np.full(batch, "structural", dtype=object)
        single = (n_content == 1).nonzero()[0]
        head[single] = content_at[content_first[single]]
        score[single] = 1.0
        method[single] = "single"
        scored = (n_content > 1).nonzero()[0]
        if len(scored):
            counts = n_content[scored]
            allowed = candidates[scored]
            narrowed = restricted[scored]
            best_local, low, confidence = self._score_heads(
                det,
                content_at[(n_content > 1)[seg_query[content_at]]],
                pid,
                counts,
                allowed,
                text_of,
            )
            pick = np.where(
                low, np.where(narrowed, allowed - 1, counts - 1), best_local
            )
            head[scored] = content_at[content_first[scored] + pick]
            score[scored] = np.where(
                low, np.where(narrowed, 0.25, 0.1), confidence
            )
            method[scored] = np.where(
                low,
                np.where(narrowed, "connector", "fallback"),
                np.where(narrowed, "connector+pattern", "pattern"),
            )

        # Roles: the head, modifier kinds beside a head, the rest other.
        seg_head = head[seg_query]
        heads = head[head >= 0]
        modifier = (seg_head >= 0) & (content | (kind == _CODE_SUBJECTIVE))
        modifier[heads] = False
        role = np.full(total, ROLE_OTHER, dtype=np.int64)
        role[modifier] = ROLE_MODIFIER
        role[heads] = ROLE_HEAD
        key = pid.copy()
        modifiers = modifier.nonzero()[0]
        flags = self._flags(det, queries, modifiers, seg_query, pid, text_of)
        key[modifiers] = (
            pid[modifiers] * self._readings + self._reading_of[pid[seg_head[modifiers]]]
        ) * 3 + flags
        keys = key.tolist()
        unnamed = (pid < 0).nonzero()[0].tolist()
        if unnamed:
            # Text outside the id space is keyed by its string, and so
            # is a modifier beside such text, as in scalar detect.
            for index in unnamed:
                keys[index] = text_of(index)
            mod_head = seg_head[modifiers]
            for slot in np.flatnonzero((pid[modifiers] < 0) | (pid[mod_head] < 0)):
                index, phrase = int(modifiers[slot]), int(pid[modifiers[slot]])
                keys[index] = det._modifier_key(
                    phrase if phrase >= 0 else text_of(index),
                    keys[int(mod_head[slot])],
                    FLAGS[flags[slot]],
                )
        terms = det._terms(role.tolist(), keys, _KIND_NAMES[kind].tolist())
        bounds = offsets.tolist()
        return list(
            map(
                Detection,
                queries,
                [tuple(terms[a:b]) for a, b in zip(bounds, bounds[1:])],
                score.tolist(),
                method.tolist(),
            )
        )

    def _flags(
        self,
        det,
        queries: list[str],
        modifiers: np.ndarray,
        seg_query: np.ndarray,
        pid: np.ndarray,
        text_of,
    ) -> np.ndarray:
        """Each modifier's constraint flag code (``FLAG_CODE``). One
        gather of table A's decisions answers known phrases in queries
        without a table-B row; the rest ask the constraint memo one by
        one, as scalar ``detect`` does."""
        memo = det._constraints
        if memo is None:
            return np.full(len(modifiers), FLAG_CODE[None], dtype=np.int64)
        mod_query = seg_query[modifiers]
        mod_pid = pid[modifiers]
        evidenced = np.zeros(len(queries), dtype=bool)
        if memo.edges is not None:
            index = memo.edges.index
            evidenced[[b for b, query in enumerate(queries) if query in index]] = True
        ask = evidenced[mod_query] | (mod_pid < 0) | (mod_pid >= self._known)
        flags = np.empty(len(modifiers), dtype=np.int64)
        blind = ~ask
        flags[blind] = self._decisions[mod_pid[blind]]
        memo.lookups += len(modifiers) - int(np.count_nonzero(ask))
        asked = ask.nonzero()[0]
        if len(asked):
            texts = self._texts
            rows: dict[int, dict[str, float] | None] = {}
            answers = []
            for query, phrase, index in zip(
                mod_query[asked].tolist(),
                mod_pid[asked].tolist(),
                modifiers[asked].tolist(),
            ):
                if query not in rows and evidenced[query]:
                    rows[query] = memo.record(queries[query])
                text = texts[phrase] if phrase >= 0 else text_of(index)
                key = phrase if phrase >= 0 else text
                answers.append(FLAG_CODE[memo.is_constraint(rows.get(query), text, key)])
            flags[asked] = answers
        return flags

    def _segment_chunk(
        self, token_lists: list[list[str]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Lockstep Viterbi over the whole chunk — the batched twin of
        :meth:`~repro.runtime.compiled.CompiledSegmenter.segment_tokens`.

        Returns per-segment arrays in query order, each query's
        segments by ascending start: the query, start, end, kind code
        and phrase id (-1 for text outside the id space)."""
        auto = self._auto
        batch = len(token_lists)
        lengths = np.asarray([len(tokens) for tokens in token_lists], dtype=np.int64)
        width = int(lengths.max())
        token_id = auto.token_ids.get
        oov = auto.oov_id
        ids = np.full((batch, width), oov, dtype=np.int64)
        ids[np.arange(width) < lengths[:, None]] = [
            token_id(token, oov) for tokens in token_lists for token in tokens
        ]
        matches = auto.match_spans(ids)
        token_scores = auto.token_scores[ids]
        # DP tables over [0, width]; padded tails compute garbage that
        # backtracking (anchored at each query's own length) never reads.
        scores = np.full((batch, width + 1), _NEG)
        scores[:, 0] = 0.0
        seg_counts = np.zeros((batch, width + 1), dtype=np.int64)
        back = np.full((batch, width + 1), -1, dtype=np.int64)
        # Longest spans first: the reference probes candidates by
        # ascending start (= descending length), the single token last.
        # A start column where no query matches adds no candidate.
        match_items = [
            (length, span_scores, np.isfinite(span_scores).any(axis=0).tolist())
            for length, (span_scores, _) in sorted(matches.items(), reverse=True)
        ]
        for end in range(1, width + 1):
            best_score: np.ndarray | None = None
            best_group = best_start = None
            for length, span_scores, live in match_items:
                if length > end or not live[end - length]:
                    continue
                start = end - length
                score = scores[:, start] + span_scores[:, start]
                group = seg_counts[:, start] - 1
                if best_score is None:
                    best_score, best_group, best_start = score, group, start
                    continue
                better = (score > best_score) | (
                    (score == best_score) & (group > best_group)
                )
                best_score = np.where(better, score, best_score)
                best_group = np.where(better, group, best_group)
                best_start = np.where(better, start, best_start)
            score = scores[:, end - 1] + token_scores[:, end - 1]
            group = seg_counts[:, end - 1] - 1
            if best_score is None:
                scores[:, end] = score
                seg_counts[:, end] = group
                back[:, end] = end - 1
                continue
            better = (score > best_score) | (
                (score == best_score) & (group > best_group)
            )
            scores[:, end] = np.where(better, score, best_score)
            seg_counts[:, end] = np.where(better, group, best_group)
            back[:, end] = np.where(better, end - 1, best_start)
        # Lockstep backtrack: each step takes every unfinished query's
        # last untaken segment.
        found_query: list[np.ndarray] = []
        found_start: list[np.ndarray] = []
        found_end: list[np.ndarray] = []
        active = np.arange(batch, dtype=np.int64)
        ends = lengths
        while len(active):
            starts = back[active, ends]
            found_query.append(active)
            found_start.append(starts)
            found_end.append(ends)
            going = starts > 0
            active = active[going]
            ends = starts[going]
        seg_query = np.concatenate(found_query)
        seg_start = np.concatenate(found_start)
        seg_end = np.concatenate(found_end)
        order = (seg_query * (width + 1) + seg_start).argsort()
        seg_query = seg_query[order]
        seg_start = seg_start[order]
        seg_end = seg_end[order]
        token = ids[seg_query, seg_start]
        kind = auto.token_kinds[token]
        pid = self._token_pid[token]
        multi = (seg_end - seg_start > 1).nonzero()[0]
        if len(multi):
            # Multi-token spans are taxonomy instances; the trie state
            # each ends in names its phrase.
            kind[multi] = _CODE_INSTANCE
            span = seg_end[multi] - seg_start[multi]
            for length, (_, states) in matches.items():
                at = multi[span == length]
                if len(at):
                    pid[at] = self._state_pid[states[seg_query[at], seg_start[at]]]
        return seg_query, seg_start, seg_end, kind, pid

    def _score_heads(
        self,
        det,
        content_at: np.ndarray,
        pid: np.ndarray,
        n_counts: np.ndarray,
        c_counts: np.ndarray,
        text_of,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched twin of the scalar ``_head_score`` loop inside
        :meth:`~repro.core.detector.HeadModifierDetector._choose_head`,
        over the content segments ``content_at`` of the scored queries
        (``n_counts`` each, the first ``c_counts`` of them candidates):
        affinities accumulated in reference order, argmax with
        first-wins ties."""
        seg_pid = pid[content_at]
        queries = len(n_counts)
        offsets = np.zeros(queries + 1, dtype=np.int64)
        n_counts.cumsum(out=offsets[1:])
        # Pair layout: query-major, then candidate, then modifier in
        # content order — the exact reference iteration order, so the
        # bincount partial sums match.
        c_max = int(c_counts.max())
        candidate = np.arange(c_max, dtype=np.int64)
        pair_query, pair_candidate, pair_other = (
            (candidate[None, :, None] < c_counts[:, None, None])
            & (np.arange(int(n_counts.max()))[None, None, :] < n_counts[:, None, None])
        ).nonzero()
        base = offsets[pair_query]
        pair_head = base + pair_candidate
        pair_mod = base + pair_other
        pair_bin = pair_query * c_max + pair_candidate
        pattern = self._pattern(det, content_at, seg_pid, pair_mod, pair_head, text_of)
        instance = self._instance(det, content_at, seg_pid, pair_mod, pair_head, text_of)
        affinity = self._iw * instance + self._one_minus_iw * pattern
        affinity[pair_mod == pair_head] = 0.0
        # Per-query argmax over -inf-padded candidate rows; first-wins
        # ties replicate the reference stable sort by (-score, start).
        matrix = np.bincount(
            pair_bin, weights=affinity, minlength=queries * c_max
        ).reshape(queries, c_max)
        matrix[candidate[None, :] >= c_counts[:, None]] = _NEG
        best_local = matrix.argmax(axis=1)
        rows_idx = np.arange(queries)
        best = matrix[rows_idx, best_local]
        matrix[rows_idx, best_local] = _NEG
        second = matrix.max(axis=1)
        low = best < self._min_evidence
        margin = np.ones(queries, dtype=np.float64)
        ranked = (c_counts > 1) & (best > 0)
        margin[ranked] = (best[ranked] - second[ranked]) / best[ranked]
        confidence = np.minimum(1.0, 0.5 + 0.5 * margin)
        return best_local, low, confidence

    def _pattern(
        self, det, content_at, seg_pid, pair_mod, pair_head, text_of
    ) -> np.ndarray:
        """Each pair's pattern score ``Σ p_m·p_h·w`` (reference
        ``_pattern_score``). It depends on the two phrases' readings
        only, so pairs of known phrases are cached by reading-id pair in
        a direct-mapped table; the rest are summed over the reading
        grid, in reference order."""
        seg_reading = self._reading_row[seg_pid]
        mod_reading = seg_reading[pair_mod]
        head_reading = seg_reading[pair_head]
        known = (mod_reading >= 0) & (head_reading >= 0)
        key = mod_reading * self._known_readings + head_reading
        slot = key & _PATTERN_SLOTS - 1
        hit = known & (self._pattern_keys[slot] == key)
        pattern = self._pattern_values[slot]
        todo = (~hit).nonzero()[0]
        if not len(todo):
            return pattern
        mod_at = pair_mod[todo]
        head_at = pair_head[todo]
        rows = seg_pid[np.concatenate((mod_at, head_at))]
        width = self._k
        if (rows >= 0).all() and (rows < self._known).all():
            ids = self._ids_mat[rows]
            probs = self._probs_mat[rows]
        else:
            readings = [
                det._reading(text_of(int(content_at[at])))
                for at in np.concatenate((mod_at, head_at)).tolist()
            ]
            width = max(width, *(len(reading.ids) for reading in readings))
            ids = np.full((len(readings), width), self._zero_id, dtype=np.int64)
            probs = np.zeros((len(readings), width), dtype=np.float64)
            for i, reading in enumerate(readings):
                ids[i, : len(reading.ids)] = reading.ids
                probs[i, : len(reading.probs)] = reading.probs
        # Pad ids are the matrix zero row and pad probabilities 0.0, so
        # padded cells add exactly the +0.0 the scalar loop's skips
        # never add.
        count = len(todo)
        mod_ids, head_ids = ids[:count], ids[count:]
        keys = (mod_ids * self._stride)[:, :, None] + head_ids[:, None, :]
        weights = self._matrix.norm(keys.reshape(-1)).reshape(count, width, width)
        weights[mod_ids[:, :, None] == head_ids[:, None, :]] = 0.0
        grid = (probs[:count][:, :, None] * probs[count:][:, None, :]) * weights
        pattern[todo] = np.bincount(
            np.repeat(np.arange(count, dtype=np.int64), width * width),
            weights=grid.reshape(-1),
            minlength=count,
        )
        store = todo[known[todo]]
        self._pattern_keys[slot[store]] = key[store]
        self._pattern_values[slot[store]] = pattern[store]
        return pattern

    def _instance(
        self, det, content_at, seg_pid, pair_mod, pair_head, text_of
    ) -> np.ndarray:
        """Each pair's instance score (reference ``_instance_score``):
        a sorted-key lookup by phrase-id pair, and the mined supports
        themselves for a pair with a phrase outside the id space."""
        instance = np.zeros(len(pair_mod), dtype=np.float64)
        keys = self._instance_keys
        if keys is None:
            return instance
        mod_pid = seg_pid[pair_mod]
        head_pid = seg_pid[pair_head]
        if len(keys):
            key = mod_pid * len(self._texts) + head_pid
            position = keys.searchsorted(key)
            np.minimum(position, len(keys) - 1, out=position)
            found = keys[position] == key
            instance[found] = self._instance_values[position[found]]
        unnamed = np.flatnonzero((mod_pid < 0) | (head_pid < 0)).tolist()
        for pair in unnamed:
            instance[pair] = _instance_score(
                det._support_map,
                text_of(int(content_at[pair_mod[pair]])),
                text_of(int(content_at[pair_head[pair]])),
                self._smoothing,
            )
        return instance
