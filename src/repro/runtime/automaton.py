"""The segmentation automaton: the compiled segmenter as flat arrays.

:class:`SegmentationAutomaton` is what the batch engine
(:mod:`repro.runtime.vectorized`) segments with, and what a snapshot
stores in its ``vseg_*`` sections. It lives apart from the engine so a
process that loads a snapshot and answers one query at a time (``repro
serve``, a replica, ``repro detect``) never imports the engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.segmentation import (
    KIND_CONNECTOR,
    KIND_INSTANCE,
    KIND_STOPWORD,
    KIND_SUBJECTIVE,
    KIND_VERB,
    KIND_WORD,
)
from repro.errors import ModelError

if TYPE_CHECKING:
    from repro.runtime.compiled import CompiledSegmenter

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
_CODE_INSTANCE = _CODE_OF[KIND_INSTANCE]
_CODE_SUBJECTIVE = _CODE_OF[KIND_SUBJECTIVE]
_CODE_CONNECTOR = _CODE_OF[KIND_CONNECTOR]
_CODE_WORD = _CODE_OF[KIND_WORD]


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
        self.edge_keys = np.asarray(edge_keys, dtype=np.int64)
        self.edge_targets = np.asarray(edge_targets, dtype=np.int64)
        self.terminal = np.asarray(terminal, dtype=np.float64)
        # The same with a trailing -inf slot, which state -1 reads.
        self._terminal = np.append(self.terminal, _NEG)
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

    def match_spans(
        self, token_ids: np.ndarray
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Span scores and trie states for every window of every query,
        one pair of arrays per span length.

        ``token_ids`` is the padded ``(batch, max_tokens)`` id matrix
        (pads carry the OOV id, which kills any window crossing a query
        boundary). Returns ``{length: (scores, states)}``, both
        ``(batch, max_tokens - length + 1)``, where entry ``[b, i]``
        describes ``tokens[i:i+length]``: its span score (``-inf`` when
        that window is no taxonomy instance) and the trie state it ends
        in (``-1`` when it leaves the trie) — the batched twin of the
        span probes inside
        :meth:`~repro.runtime.compiled.CompiledSegmenter.segment_tokens`.
        """
        matches: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if self.max_span < 2 or not len(self.edge_keys):
            return matches
        last_edge = len(self.edge_keys) - 1
        state = self.root_child[token_ids]
        for length in range(2, min(self.max_span, token_ids.shape[1]) + 1):
            # A dead state (-1) makes a negative key, which no edge has.
            keys = state[:, :-1] * self.vsize + token_ids[:, length - 1 :]
            positions = self.edge_keys.searchsorted(keys)
            np.minimum(positions, last_edge, out=positions)
            state = np.where(
                self.edge_keys[positions] == keys, self.edge_targets[positions], -1
            )
            if state.max() < 0:
                break
            matches[length] = (self._terminal[state], state)
        return matches

