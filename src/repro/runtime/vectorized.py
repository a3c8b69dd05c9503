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
   unknown-token behaviour (score 0.7, kind ``word``).
2. **Batched span matching** — multi-token taxonomy instances live in a
   token-id trie stored as flat sorted ``state·V + token`` edge arrays;
   one :func:`numpy.searchsorted` pass per depth finds every candidate
   span of every query simultaneously.
3. **Lockstep Viterbi** — the segmentation DP advances over all queries
   at once, one token position per step, replicating the reference
   tie-break (strict score improvement, then fewer segments) with
   vectorized compares, so padded positions can never leak into a real
   query's backtrack.
4. **Gathered scoring** — all candidate ``(modifier, head)`` pairs of
   the batch are laid out in reference order and scored with ``take``
   gathers against the :class:`~repro.runtime.compiled.PatternMatrix`
   plus one ``bincount`` per reduction. ``np.bincount`` accumulates
   strictly in input order, so each pair's ``Σ p_m·p_h·w`` and each
   candidate's affinity total add up in exactly the reference order —
   float-for-float the same partial sums, hence bit-identical scores.
5. **Argmax selection** — per-query argmax over ``-inf``-padded
   candidate rows; NumPy's first-wins argmax equals the reference
   stable sort by ``(-score, start)`` because candidates are emitted in
   ascending start order.
6. **Shared assembly** — each query's ``(text, kind)`` segments, head
   position, score and method go to
   :meth:`~repro.runtime.compiled.CompiledDetector._finish`, the one
   memoized assembly scalar ``detect`` ends in too, so both paths build
   every ``Detection`` (terms, constraint flags) the same way.

Queries the array program cannot reproduce exactly (a ``.`` anywhere —
trailing-period stripping can merge spans — or extreme token counts)
fall back to the scalar compiled path, detection by detection, keeping
the bit-identity guarantee unconditional.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.detector import Detection
from repro.core.segmentation import (
    CONTENT_KINDS,
    KIND_CONNECTOR,
    KIND_INSTANCE,
    KIND_STOPWORD,
    KIND_SUBJECTIVE,
    KIND_VERB,
    KIND_WORD,
)
from repro.errors import ModelError
from repro.runtime.compiled import CompiledSegmenter
from repro.text.normalizer import normalize_fast

_NEG = float("-inf")

#: Stable kind-code table (baked into snapshots; append-only).
KIND_BY_CODE: tuple[str, ...] = (
    KIND_INSTANCE,
    KIND_SUBJECTIVE,
    KIND_CONNECTOR,
    KIND_VERB,
    KIND_STOPWORD,
    KIND_WORD,
)
_CODE_OF = {kind: code for code, kind in enumerate(KIND_BY_CODE)}
_CODE_WORD = _CODE_OF[KIND_WORD]
_KIND_NAMES = np.asarray(KIND_BY_CODE, dtype=object)

#: Queries longer than this fall back to the scalar path: the lockstep
#: DP pads every query to the batch maximum, so one pathological input
#: must not widen the whole batch's arrays.
MAX_BATCH_TOKENS = 48


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start+length)`` blocks, vectorized."""
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - lengths, lengths)
    return np.repeat(starts, lengths) + within


class SegmentationAutomaton:
    """Flat-array span automaton compiled from a
    :class:`~repro.runtime.compiled.CompiledSegmenter` (itself the
    compiled twin of :class:`~repro.core.segmentation.Segmenter`).

    Single-token scores/kinds become dense arrays indexed by token id;
    multi-token taxonomy instances become a token-id trie whose edges
    are one sorted ``int64`` array of ``state * (V+1) + token_id`` keys
    (V+1 so the reserved out-of-vocabulary id is addressable but never
    matches) plus aligned target states, and whose per-state ``terminal``
    array carries the span score (``-inf`` when the state completes no
    instance). Everything here serializes losslessly into optional
    snapshot sections (see :mod:`repro.runtime.snapshot`).
    """

    def __init__(
        self,
        tokens: list[str],
        token_scores: np.ndarray,
        token_kinds: np.ndarray,
        edge_keys: np.ndarray,
        edge_targets: np.ndarray,
        terminal: np.ndarray,
        max_span: int,
    ) -> None:
        if len(token_scores) != len(tokens) or len(token_kinds) != len(tokens):
            raise ModelError(
                "segmentation automaton: token table arrays disagree "
                f"({len(tokens)} tokens, {len(token_scores)} scores, "
                f"{len(token_kinds)} kinds)"
            )
        if len(edge_keys) != len(edge_targets):
            raise ModelError(
                "segmentation automaton: edge arrays disagree "
                f"({len(edge_keys)} keys, {len(edge_targets)} targets)"
            )
        codes = np.asarray(token_kinds, dtype=np.int64)
        if len(codes) and (codes.min() < 0 or codes.max() >= len(KIND_BY_CODE)):
            raise ModelError(
                "segmentation automaton: token kind code outside "
                f"0..{len(KIND_BY_CODE) - 1}"
            )
        self.tokens = tokens
        self.token_ids: dict[str, int] = {t: i for i, t in enumerate(tokens)}
        self.oov_id = len(tokens)
        self.vsize = len(tokens) + 1
        # One trailing OOV slot: unknown single tokens score 0.7 / kind
        # "word", exactly the reference miss path.
        self.token_scores = np.append(
            np.asarray(token_scores, dtype=np.float64), 0.7
        )
        self.token_kinds = np.append(codes, _CODE_WORD)
        #: The same kinds as strings, for the segments the engine emits.
        self.token_kind_names = _KIND_NAMES[self.token_kinds]
        self.edge_keys = np.asarray(edge_keys, dtype=np.int64)
        self.edge_targets = np.asarray(edge_targets, dtype=np.int64)
        self.terminal = np.asarray(terminal, dtype=np.float64)
        self.max_span = max_span
        # Depth-1 transitions as a dense row (the hot first hop).
        root_child = np.full(self.vsize, -1, dtype=np.int64)
        root_mask = self.edge_keys < self.vsize
        root_child[self.edge_keys[root_mask]] = self.edge_targets[root_mask]
        self.root_child = root_child

    @classmethod
    def build(cls, segmenter: CompiledSegmenter) -> "SegmentationAutomaton":
        """Compile ``segmenter``'s span-score dicts into flat arrays."""
        single = segmenter._single
        multi = segmenter._multi
        kind_map = segmenter._kind
        vocabulary = set(single)
        for phrase in multi:
            vocabulary.update(phrase.split())
        tokens = sorted(vocabulary)
        ids = {token: i for i, token in enumerate(tokens)}
        scores = [single.get(token, 0.7) for token in tokens]
        kinds = [_CODE_OF[kind_map.get(token, KIND_WORD)] for token in tokens]
        children: list[dict[int, int]] = [{}]
        terminal: list[float] = [_NEG]
        for phrase in sorted(multi):
            state = 0
            for token in phrase.split():
                token_id = ids[token]
                nxt = children[state].get(token_id)
                if nxt is None:
                    nxt = len(children)
                    children[state][token_id] = nxt
                    children.append({})
                    terminal.append(_NEG)
                state = nxt
            terminal[state] = multi[phrase]
        vsize = len(tokens) + 1
        edge_keys: list[int] = []
        edge_targets: list[int] = []
        # State ids ascend with insertion and phrases are visited sorted,
        # but child ids are not monotone across states; emit state-major,
        # token-minor so the flat key array is globally sorted.
        for state, kids in enumerate(children):
            base = state * vsize
            for token_id in sorted(kids):
                edge_keys.append(base + token_id)
                edge_targets.append(kids[token_id])
        return cls(
            tokens,
            np.asarray(scores, dtype=np.float64),
            np.asarray(kinds, dtype=np.int64),
            np.asarray(edge_keys, dtype=np.int64),
            np.asarray(edge_targets, dtype=np.int64),
            np.asarray(terminal, dtype=np.float64),
            segmenter._max_span,
        )

    def match_spans(self, token_ids: np.ndarray) -> dict[int, np.ndarray]:
        """Span scores for every window of every query, one array per
        span length.

        ``token_ids`` is the padded ``(batch, max_tokens)`` id matrix
        (pads carry the OOV id, which kills any window crossing a query
        boundary). Returns ``{length: (batch, max_tokens) scores}``
        where entry ``[b, i]`` scores ``tokens[i:i+length]`` (``-inf``
        when that window is no taxonomy instance) — the batched twin of
        the span probes inside
        :meth:`~repro.runtime.compiled.CompiledSegmenter.segment_tokens`.
        """
        batch, width = token_ids.shape
        matches: dict[int, np.ndarray] = {}
        if self.max_span < 2 or not len(self.edge_keys) or width < 2:
            return matches
        last_edge = len(self.edge_keys) - 1
        state = self.root_child[token_ids]
        for length in range(2, self.max_span + 1):
            if length - 1 >= width:
                break
            valid_width = width - (length - 1)
            prev = state[:, :valid_width]
            keys = prev * self.vsize + token_ids[:, length - 1 :]
            positions = np.searchsorted(self.edge_keys, keys)
            np.minimum(positions, last_edge, out=positions)
            found = (prev >= 0) & (self.edge_keys[positions] == keys)
            state = np.full((batch, width), -1, dtype=np.int64)
            state[:, :valid_width] = np.where(
                found, self.edge_targets[positions], -1
            )
            alive = state >= 0
            if not alive.any():
                break
            scores = np.where(alive, self.terminal[np.maximum(state, 0)], _NEG)
            if np.isfinite(scores).any():
                matches[length] = scores
        return matches


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
        # Precomputed reading matrix: one padded row of concept ids /
        # probabilities per known phrase. Pad ids are the matrix zero
        # row and pad probabilities are 0.0, so padded cells contribute
        # exactly the +0.0 the scalar loop's skips never add.
        readings = detector._compiled_readings
        width = max((len(r.ids) for r in readings.values()), default=0)
        self._k = max(width, 1)
        self._ids_mat = np.full((len(readings), self._k), self._zero_id, np.int64)
        self._probs_mat = np.zeros((len(readings), self._k), np.float64)
        self._phrase_row: dict[str, int] = {}
        for row, (phrase, reading) in enumerate(readings.items()):
            count = len(reading.ids)
            self._ids_mat[row, :count] = reading.ids
            self._probs_mat[row, :count] = reading.probs
            self._phrase_row[phrase] = row
        # Instance-pair supports behind a phrase interner + sorted keys.
        support = detector._support_map
        self._support_sid: dict[str, int] = {}
        self._support_keys: np.ndarray | None = None
        self._support_values: np.ndarray | None = None
        self._support_card = 0
        if support:
            names = sorted({m for m, _ in support} | {h for _, h in support})
            sid = {name: i for i, name in enumerate(names)}
            card = len(names)
            flat = np.asarray(
                [sid[m] * card + sid[h] for m, h in support], dtype=np.int64
            )
            values = np.asarray(list(support.values()), dtype=np.float64)
            order = np.argsort(flat)
            self._support_sid = sid
            self._support_keys = flat[order]
            self._support_values = values[order]
            self._support_card = card

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
        results: dict[str, Detection | None] = {}
        vectorizable: list[tuple[str, str, list[str]]] = []
        for text in texts:
            if text in results:
                continue
            results[text] = None
            query = normalize_fast(text)
            tokens = query.split()
            if not tokens:
                results[text] = Detection(
                    query=query, terms=(), score=0.0, method="empty"
                )
            elif "." in query or len(tokens) > MAX_BATCH_TOKENS:
                # Trailing-period stripping re-normalizes span-by-span;
                # only the scalar path reproduces it exactly.
                results[text] = det.detect(text)
            else:
                vectorizable.append((text, query, tokens))
        # Chunked so one huge batch cannot balloon the padded arrays.
        for start in range(0, len(vectorizable), 4096):
            self._detect_chunk(det, vectorizable[start : start + 4096], results)
        return [results[text] for text in texts]  # type: ignore[misc]

    # ------------------------------------------------------------------
    # the array pipeline
    # ------------------------------------------------------------------
    def _detect_chunk(
        self,
        det,
        items: list[tuple[str, str, list[str]]],
        results: dict[str, Detection | None],
    ) -> None:
        if not items:
            return
        segmented = self._segment_chunk([tokens for _, _, tokens in items])
        scored: list[tuple[int, list[tuple[str, str]], list[int], int, bool]] = []
        seg_texts: list[str] = []
        n_counts: list[int] = []
        c_counts: list[int] = []
        for index, (text, query, _) in enumerate(items):
            segments = segmented[index]
            content: list[int] = []
            connector_count = 0
            connector_at = -1
            for position, (_, kind) in enumerate(segments):
                if kind in CONTENT_KINDS:
                    content.append(position)
                elif kind == KIND_CONNECTOR:
                    connector_count += 1
                    connector_at = position
            if not content:
                results[text] = det._finish(query, segments, None, 0.0, "structural")
                continue
            if len(content) == 1:
                results[text] = det._finish(query, segments, content[0], 1.0, "single")
                continue
            # Reference restriction: one connector with both sides
            # non-empty, and content on the left — candidates become
            # that (possibly complete) prefix of the content list.
            candidates = len(content)
            restricted = False
            if (
                self._use_connector
                and connector_count == 1
                and 0 < connector_at < len(segments) - 1
            ):
                left = 0
                while left < len(content) and content[left] < connector_at:
                    left += 1
                if left:
                    candidates = left
                    restricted = True
            scored.append((index, segments, content, candidates, restricted))
            seg_texts.extend(segments[i][0] for i in content)
            n_counts.append(len(content))
            c_counts.append(candidates)
        if not scored:
            return
        best_local, low, confidence = self._score_heads(
            det,
            seg_texts,
            np.asarray(n_counts, dtype=np.int64),
            np.asarray(c_counts, dtype=np.int64),
        )
        for row, (index, segments, content, candidates, restricted) in enumerate(
            scored
        ):
            text, query, _ = items[index]
            results[text] = self._resolve(
                det,
                query,
                segments,
                content,
                candidates,
                restricted,
                bool(low[row]),
                int(best_local[row]),
                float(confidence[row]),
            )

    def _segment_chunk(
        self, token_lists: list[list[str]]
    ) -> list[list[tuple[str, str]]]:
        """Lockstep Viterbi over the whole chunk — the batched twin of
        :meth:`~repro.runtime.compiled.CompiledSegmenter.segment_tokens`,
        giving each query's ``(text, kind)`` segments."""
        auto = self._auto
        batch = len(token_lists)
        lengths = [len(tokens) for tokens in token_lists]
        width = max(lengths)
        token_id = auto.token_ids.get
        oov = auto.oov_id
        flat_ids = [token_id(t, oov) for tokens in token_lists for t in tokens]
        ids = np.full((batch, width), oov, dtype=np.int64)
        length_arr = np.asarray(lengths, dtype=np.int64)
        ends = np.cumsum(length_arr)
        positions = (
            np.repeat(np.arange(batch, dtype=np.int64) * width, length_arr)
            + np.arange(int(ends[-1]), dtype=np.int64)
            - np.repeat(ends - length_arr, length_arr)
        )
        ids.ravel()[positions] = flat_ids
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
        match_items = sorted(matches.items(), reverse=True)
        for end in range(1, width + 1):
            best_score: np.ndarray | None = None
            best_group = best_start = None
            for length, span_scores in match_items:
                if length > end:
                    continue
                start = end - length
                score = scores[:, start] + span_scores[:, start]
                group = seg_counts[:, start] - 1
                if best_score is None:
                    best_score, best_group = score, group
                    best_start = np.full(batch, start, dtype=np.int64)
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
        back_rows = back.tolist()
        kind_rows = auto.token_kind_names[ids].tolist()
        segmented: list[list[tuple[str, str]]] = []
        for row, tokens in enumerate(token_lists):
            back_row = back_rows[row]
            kinds = kind_rows[row]
            spans: list[tuple[str, str]] = []
            end = lengths[row]
            while end > 0:
                start = back_row[end]
                if end - start == 1:
                    spans.append((tokens[start], kinds[start]))
                else:
                    spans.append((" ".join(tokens[start:end]), KIND_INSTANCE))
                end = start
            spans.reverse()
            segmented.append(spans)
        return segmented

    def _score_heads(
        self,
        det,
        seg_texts: list[str],
        n_counts: np.ndarray,
        c_counts: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched twin of the scalar ``_head_score`` loop inside
        :meth:`~repro.core.detector.HeadModifierDetector._choose_head`:
        bincount-accumulated affinities in reference order, argmax with
        first-wins ties."""
        total_segments = len(seg_texts)
        row_of = self._phrase_row.get
        rows = [row_of(text, -1) for text in seg_texts]
        row_arr = np.asarray(rows, dtype=np.int64)
        if min(rows, default=0) >= 0:
            # Every phrase is in the compiled reading matrix (the common
            # warm case): plain row gathers, no scatter needed.
            width = self._k
            seg_ids = self._ids_mat[row_arr]
            seg_probs = self._probs_mat[row_arr]
        else:
            fresh = [
                (i, det._reading(seg_texts[i]))
                for i in range(total_segments)
                if rows[i] < 0
            ]
            width = self._k
            for _, reading in fresh:
                width = max(width, len(reading.ids))
            seg_ids = np.full(
                (total_segments, width), self._zero_id, dtype=np.int64
            )
            seg_probs = np.zeros((total_segments, width), dtype=np.float64)
            known = row_arr >= 0
            seg_ids[known, : self._k] = self._ids_mat[row_arr[known]]
            seg_probs[known, : self._k] = self._probs_mat[row_arr[known]]
            for i, reading in fresh:
                count = len(reading.ids)
                seg_ids[i, :count] = reading.ids
                seg_probs[i, :count] = reading.probs
        # Pair layout: candidate-major, modifiers in content order — the
        # exact reference iteration order, so bincount partial sums match.
        queries = len(n_counts)
        offsets = np.zeros(queries + 1, dtype=np.int64)
        np.cumsum(n_counts, out=offsets[1:])
        cand_global = _concat_ranges(offsets[:-1], c_counts)
        total_cands = len(cand_global)
        reps = np.repeat(n_counts, c_counts)
        pair_mod = _concat_ranges(np.repeat(offsets[:-1], c_counts), reps)
        pair_head = np.repeat(cand_global, reps)
        pair_bin = np.repeat(np.arange(total_cands, dtype=np.int64), reps)
        pairs = len(pair_mod)
        mod_ids = seg_ids[pair_mod]
        head_ids = seg_ids[pair_head]
        keys = (mod_ids * self._stride)[:, :, None] + head_ids[:, None, :]
        weights = self._matrix.norm(keys.reshape(-1)).reshape(pairs, width, width)
        weights[mod_ids[:, :, None] == head_ids[:, None, :]] = 0.0
        grid = (
            seg_probs[pair_mod][:, :, None] * seg_probs[pair_head][:, None, :]
        ) * weights
        pattern = np.bincount(
            np.repeat(np.arange(pairs, dtype=np.int64), width * width),
            weights=grid.reshape(-1),
            minlength=pairs,
        )
        if self._support_keys is not None:
            sid_of = self._support_sid.get
            sids = np.asarray(
                [sid_of(text, -1) for text in seg_texts], dtype=np.int64
            )
            mod_sid = sids[pair_mod]
            head_sid = sids[pair_head]
            valid = (mod_sid >= 0) & (head_sid >= 0)
            card = self._support_card
            # Forward and backward keys probed in one searchsorted pass;
            # keys with an unknown phrase (sid -1) may collide with real
            # entries, but ``valid`` masks them out inside the take.
            both = self._support_take(
                np.concatenate(
                    (mod_sid * card + head_sid, head_sid * card + mod_sid)
                ),
                np.concatenate((valid, valid)),
            )
            forward = both[:pairs]
            backward = both[pairs:]
            denominator = forward + backward + self._smoothing
            with np.errstate(divide="ignore", invalid="ignore"):
                instance = np.where(denominator > 0, forward / denominator, 0.0)
        else:
            instance = np.zeros(pairs, dtype=np.float64)
        affinity = self._iw * instance + self._one_minus_iw * pattern
        affinity[pair_mod == pair_head] = 0.0
        head_scores = np.bincount(pair_bin, weights=affinity, minlength=total_cands)
        # Per-query argmax over -inf-padded candidate rows; first-wins
        # ties replicate the reference stable sort by (-score, start).
        c_max = int(c_counts.max())
        matrix = np.full((queries, c_max), _NEG)
        matrix[
            np.repeat(np.arange(queries, dtype=np.int64), c_counts),
            _concat_ranges(np.zeros(queries, dtype=np.int64), c_counts),
        ] = head_scores
        best_local = matrix.argmax(axis=1)
        rows_idx = np.arange(queries)
        best = matrix[rows_idx, best_local]
        matrix[rows_idx, best_local] = _NEG
        second = matrix.max(axis=1)
        low = best < self._min_evidence
        with np.errstate(divide="ignore", invalid="ignore"):
            raw_margin = (best - second) / best
        margin = np.where((c_counts > 1) & (best > 0), raw_margin, 1.0)
        confidence = np.minimum(1.0, 0.5 + 0.5 * margin)
        return best_local, low, confidence

    def _support_take(self, keys: np.ndarray, valid: np.ndarray) -> np.ndarray:
        assert self._support_keys is not None and self._support_values is not None
        positions = np.searchsorted(self._support_keys, keys)
        np.minimum(positions, len(self._support_keys) - 1, out=positions)
        found = (self._support_keys[positions] == keys) & valid
        return np.where(found, self._support_values[positions], 0.0)

    # ------------------------------------------------------------------
    # per-query resolution (reference control flow; the detector's
    # _finish assembles the result)
    # ------------------------------------------------------------------
    def _resolve(
        self,
        det,
        query: str,
        segments: list[tuple[str, str]],
        content: list[int],
        candidates: int,
        restricted: bool,
        low: bool,
        best_local: int,
        confidence: float,
    ) -> Detection:
        if low:
            if restricted:
                return det._finish(
                    query, segments, content[candidates - 1], 0.25, "connector"
                )
            return det._finish(query, segments, content[-1], 0.1, "fallback")
        method = "connector+pattern" if restricted else "pattern"
        return det._finish(query, segments, content[best_local], confidence, method)
