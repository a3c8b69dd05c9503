"""Weighted concept patterns — the paper's central artifact.

An instance pair like (``iphone 5s`` → ``smart cover``) says nothing about
(``galaxy s4`` → ``screen protector``); its conceptualization
(``smartphone`` → ``phone accessory``) covers both. Aggregating the
conceptualizations of *all* mined instance pairs, weighted by pair support
and sense typicality, yields a table of weighted concept patterns:

    w(c_m → c_h) = Σ_pairs support(m, h) · P(c_m | m) · P(c_h | h)

The table is then **pruned** to the smallest prefix (by weight) covering a
target fraction of total mass — the paper's "concise" property: a few
hundred patterns generalize millions of instance pairs.
"""

from __future__ import annotations

import gzip
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import IO

from repro.core.conceptualizer import Conceptualizer
from repro.errors import ModelError
from repro.mining.pairs import PairCollection


@dataclass(frozen=True, slots=True)
class ConceptPattern:
    """A directed concept-level head-modifier pattern."""

    modifier_concept: str
    head_concept: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[{self.modifier_concept}] -> [{self.head_concept}]"


class PatternTable:
    """Weighted concept patterns with lookup, pruning, and persistence."""

    def __init__(self, weights: dict[ConceptPattern, float] | None = None) -> None:
        self._weights: dict[ConceptPattern, float] = {}
        for pattern, weight in (weights or {}).items():
            self.add(pattern, weight)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, pattern: ConceptPattern, weight: float) -> None:
        """Accumulate ``weight`` onto a pattern."""
        if weight <= 0:
            raise ModelError(f"pattern weight must be positive: {pattern}")
        self._weights[pattern] = self._weights.get(pattern, 0.0) + weight

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def weight(self, modifier_concept: str, head_concept: str) -> float:
        """Raw accumulated weight of a pattern (0 when absent)."""
        return self._weights.get(ConceptPattern(modifier_concept, head_concept), 0.0)

    def score(self, modifier_concept: str, head_concept: str) -> float:
        """Normalized pattern strength in [0, 1]: weight / max weight.

        Normalizing by the maximum keeps scores comparable across tables
        of different sizes (pruning sweeps, log-size sweeps).
        """
        if not self._weights:
            return 0.0
        return self.weight(modifier_concept, head_concept) / self.max_weight

    def directionality(self, concept_a: str, concept_b: str) -> float:
        """Signed preference for ``a → b`` over ``b → a`` in [-1, 1]."""
        forward = self.weight(concept_a, concept_b)
        backward = self.weight(concept_b, concept_a)
        total = forward + backward
        if total == 0:
            return 0.0
        return (forward - backward) / total

    @property
    def max_weight(self) -> float:
        """Largest single pattern weight (normalization base for scores)."""
        return max(self._weights.values(), default=0.0)

    @property
    def total_weight(self) -> float:
        """Sum of all pattern weights (the table's evidence mass)."""
        return sum(self._weights.values())

    def __len__(self) -> int:
        return len(self._weights)

    def __contains__(self, pattern: ConceptPattern) -> bool:
        return pattern in self._weights

    def items(self) -> list[tuple[ConceptPattern, float]]:
        """All ``(pattern, weight)`` entries in insertion order.

        Unlike :meth:`top` this does not sort — it is the cheap export
        used by the compiled runtime to flatten the table into arrays.
        """
        return list(self._weights.items())

    def concepts(self) -> set[str]:
        """Every concept mentioned on either side of a pattern."""
        vocabulary: set[str] = set()
        for pattern in self._weights:
            vocabulary.add(pattern.modifier_concept)
            vocabulary.add(pattern.head_concept)
        return vocabulary

    def top(self, n: int | None = None) -> list[tuple[ConceptPattern, float]]:
        """Patterns by descending weight (deterministic tie-break)."""
        ordered = sorted(
            self._weights.items(),
            key=lambda kv: (-kv[1], kv[0].modifier_concept, kv[0].head_concept),
        )
        return ordered if n is None else ordered[:n]

    # ------------------------------------------------------------------
    # pruning
    # ------------------------------------------------------------------
    def pruned_to_count(self, max_patterns: int) -> "PatternTable":
        """Keep only the ``max_patterns`` heaviest patterns."""
        if max_patterns <= 0:
            raise ModelError("max_patterns must be positive")
        return PatternTable(dict(self.top(max_patterns)))

    def pruned_to_mass(self, mass: float) -> "PatternTable":
        """Keep the smallest weight-ordered prefix covering ``mass`` of the
        total weight (the paper's conciseness knob)."""
        if not 0 < mass <= 1:
            raise ModelError("mass must be in (0, 1]")
        target = self.total_weight * mass
        kept: dict[ConceptPattern, float] = {}
        accumulated = 0.0
        for pattern, weight in self.top():
            kept[pattern] = weight
            accumulated += weight
            if accumulated >= target:
                break
        return PatternTable(kept)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the table as TSV (gzip when the suffix is ``.gz``)."""
        path = Path(path)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        os.close(fd)
        tmp = Path(tmp_name)
        try:
            with _open_write(tmp, gz=path.suffix == ".gz") as out:
                out.write("# repro-patterns v1\n")
                for pattern, weight in self.top():
                    out.write(
                        f"{pattern.modifier_concept}\t{pattern.head_concept}\t{weight!r}\n"
                    )
            tmp.replace(path)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path: str | Path) -> "PatternTable":
        """Read a table written by :meth:`save`.

        Raises :class:`ModelError` on malformed or truncated files.
        """
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(path)
        try:
            return cls._load(path)
        except (EOFError, OSError, UnicodeDecodeError) as exc:
            raise ModelError(f"{path}: unreadable pattern file ({exc})") from exc

    @classmethod
    def _load(cls, path: Path) -> "PatternTable":
        table = cls()
        with _open_read(path, gz=path.suffix == ".gz") as handle:
            header = handle.readline().rstrip("\n")
            if header != "# repro-patterns v1":
                raise ModelError(f"{path}: not a pattern table (header {header!r})")
            for line_no, line in enumerate(handle, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise ModelError(f"{path}:{line_no}: malformed pattern line")
                try:
                    weight = float(fields[2])
                except ValueError as exc:
                    raise ModelError(f"{path}:{line_no}: bad weight {fields[2]!r}") from exc
                table.add(ConceptPattern(fields[0], fields[1]), weight)
        return table


def derive_pattern_table(
    pairs: PairCollection,
    conceptualizer: Conceptualizer,
    top_k_concepts: int = 5,
    hierarchy_discount: float = 0.0,
) -> PatternTable:
    """Aggregate mined instance pairs into a weighted concept pattern table.

    Each pair contributes its support, spread over the cross product of
    the modifier's and head's top-``k`` concept readings weighted by
    typicality. Pairs whose sides do not conceptualize are skipped — they
    are exactly the composite/noise pairs mining could not avoid, and
    dropping them here is what makes the concept level *cleaner* than the
    instance level.

    With ``hierarchy_discount`` > 0, every contribution to ``(c_m → c_h)``
    is also credited, attenuated, to the concepts' *super-concepts* (e.g.
    (smartphone → phone accessory) also feeds (device → accessory)).
    These coarse patterns cover sibling-concept combinations never mined
    directly — experiment A4.
    """
    table = PatternTable()
    expand = hierarchy_discount > 0
    for modifier, head, support in pairs.items():
        modifier_concepts = conceptualizer.conceptualize(modifier, top_k_concepts)
        if not modifier_concepts:
            continue
        head_concepts = conceptualizer.conceptualize(head, top_k_concepts)
        if not head_concepts:
            continue
        if expand:
            modifier_concepts = conceptualizer.expand_with_ancestors(
                modifier_concepts, hierarchy_discount
            )
            head_concepts = conceptualizer.expand_with_ancestors(
                head_concepts, hierarchy_discount
            )
        for m_concept, m_prob in modifier_concepts:
            for h_concept, h_prob in head_concepts:
                if m_concept == h_concept:
                    continue
                weight = support * m_prob * h_prob
                if weight > 0:
                    table.add(ConceptPattern(m_concept, h_concept), weight)
    return table


def _open_write(path: Path, gz: bool) -> IO[str]:
    if gz:
        return gzip.open(path, "wt", encoding="utf-8")
    return open(path, "w", encoding="utf-8")


def _open_read(path: Path, gz: bool) -> IO[str]:
    if gz:
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")
