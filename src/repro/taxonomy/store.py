"""The isA taxonomy store: instance↔concept edges with co-occurrence counts.

This mirrors Probase's core table: ``(instance, concept, count)`` where
``count`` is how often the pair was observed in extraction. Both directions
are indexed because conceptualization needs ``P(concept | instance)`` while
pattern instantiation and the query-log generator need
``P(instance | concept)``.

All keys are normalized with :func:`repro.text.normalizer.normalize_term`
at insertion *and* lookup, so callers never worry about case or dashes.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence

from repro.errors import TaxonomyError
from repro.text.normalizer import normalize_fast, normalize_term


class ConceptTaxonomy:
    """A weighted bipartite isA network.

    >>> t = ConceptTaxonomy()
    >>> t.add_edge("iphone 5s", "smartphone", count=120)
    >>> t.add_edge("iphone 5s", "gadget", count=30)
    >>> t.concepts_of("IPhone-5S")["smartphone"]
    120.0
    """

    def __init__(self) -> None:
        self._instance_concepts: dict[str, dict[str, float]] = {}
        self._concept_instances: dict[str, dict[str, float]] = {}
        self._concept_domain: dict[str, str] = {}
        self._total = 0.0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_edge(
        self,
        instance: str,
        concept: str,
        count: float = 1.0,
        domain: str | None = None,
    ) -> None:
        """Add (or accumulate) an isA observation."""
        if count <= 0:
            raise TaxonomyError(f"edge count must be positive, got {count}")
        inst = normalize_term(instance)
        conc = normalize_term(concept)
        if not inst or not conc:
            raise TaxonomyError("instance and concept must be non-empty")
        if inst == conc:
            raise TaxonomyError(f"self-loop rejected: {inst!r} isA {conc!r}")
        self._instance_concepts.setdefault(inst, {})
        self._instance_concepts[inst][conc] = (
            self._instance_concepts[inst].get(conc, 0.0) + count
        )
        self._concept_instances.setdefault(conc, {})
        self._concept_instances[conc][inst] = (
            self._concept_instances[conc].get(inst, 0.0) + count
        )
        self._total += count
        if domain:
            self._concept_domain[conc] = domain

    @classmethod
    def from_tables(
        cls,
        strings: Sequence[str],
        instances: Sequence[int],
        concepts: Sequence[int],
        counts: Sequence[float],
        domains: Mapping[int, int] | None = None,
    ) -> "ConceptTaxonomy":
        """The taxonomy of the edges ``strings[instances[i]] isA
        strings[concepts[i]]`` with ``counts[i]``, each as if by
        :meth:`add_edge` in that order, with ``domains`` (concept id →
        label id) as their domain labels.

        The strings are not normalized: each distinct one the edges use
        is checked once to be in normal form. As :meth:`add_edge` does,
        a non-positive count, an empty term or a self-loop raises
        :class:`~repro.errors.TaxonomyError`, here with a message that
        starts with the argument at fault (``"counts: "``,
        ``"instances: "`` or ``"concepts: "``)."""
        if counts and min(counts) <= 0:
            raise TaxonomyError(
                f"counts: edge count must be positive, got {min(counts)}"
            )
        for field, ids in (("instances", instances), ("concepts", concepts)):
            for id_ in set(ids):
                term = strings[id_]
                if not term or normalize_fast(term).rstrip(". ") != term:
                    raise TaxonomyError(f"{field}: term not in normal form: {term!r}")
        taxonomy = cls()
        forward = taxonomy._instance_concepts
        backward = taxonomy._concept_instances
        total = 0.0
        for instance, concept, count in zip(instances, concepts, counts):
            inst, conc = strings[instance], strings[concept]
            if inst == conc:
                raise TaxonomyError(
                    f"concepts: self-loop rejected: {inst!r} isA {conc!r}"
                )
            row = forward.setdefault(inst, {})
            row[conc] = row.get(conc, 0.0) + count
            column = backward.setdefault(conc, {})
            column[inst] = column.get(inst, 0.0) + count
            total += count
            label = domains.get(concept) if domains else None
            if label is not None and strings[label]:
                taxonomy._concept_domain[conc] = strings[label]
        taxonomy._total = total
        return taxonomy

    def merge(self, other: "ConceptTaxonomy") -> None:
        """Accumulate all edges (and domain labels) of ``other`` into self."""
        for instance, concept, count in other.iter_edges():
            self.add_edge(instance, concept, count, domain=other.domain_of(concept))

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def concepts_of(self, instance: str) -> Mapping[str, float]:
        """Concept → count for an instance (empty mapping when unknown)."""
        return self._instance_concepts.get(normalize_term(instance), {})

    def instances_of(self, concept: str) -> Mapping[str, float]:
        """Instance → count for a concept (empty mapping when unknown)."""
        return self._concept_instances.get(normalize_term(concept), {})

    def has_instance(self, instance: str) -> bool:
        """Whether the phrase is a known instance."""
        return normalize_term(instance) in self._instance_concepts

    def has_concept(self, concept: str) -> bool:
        """Whether the phrase is a known concept."""
        return normalize_term(concept) in self._concept_instances

    def edge_count(self, instance: str, concept: str) -> float:
        """Observation count of one edge (0 when absent)."""
        return self.concepts_of(instance).get(normalize_term(concept), 0.0)

    def instance_total(self, instance: str) -> float:
        """Total observations of an instance across all its concepts."""
        return sum(self.concepts_of(instance).values())

    def concept_total(self, concept: str) -> float:
        """Total observations of a concept across all its instances."""
        return sum(self.instances_of(concept).values())

    def domain_of(self, concept: str) -> str | None:
        """Domain label attached to a concept, if any."""
        return self._concept_domain.get(normalize_term(concept))

    # ------------------------------------------------------------------
    # enumeration / statistics
    # ------------------------------------------------------------------
    @property
    def num_instances(self) -> int:
        """Number of distinct instances."""
        return len(self._instance_concepts)

    @property
    def num_concepts(self) -> int:
        """Number of distinct concepts."""
        return len(self._concept_instances)

    @property
    def num_edges(self) -> int:
        """Number of distinct isA edges."""
        return sum(len(cs) for cs in self._instance_concepts.values())

    @property
    def total_count(self) -> float:
        """Sum of all edge counts (the extraction corpus mass)."""
        return self._total

    def iter_instances(self) -> Iterator[str]:
        """Iterate over all instance strings."""
        return iter(self._instance_concepts)

    def iter_concepts(self) -> Iterator[str]:
        """Iterate over all concept strings."""
        return iter(self._concept_instances)

    def iter_instance_totals(self) -> Iterator[tuple[str, float]]:
        """Yield every ``(instance, instance_total(instance))``, without
        normalizing the stored keys again."""
        for instance, concepts in self._instance_concepts.items():
            yield instance, sum(concepts.values())

    def iter_edges(self) -> Iterator[tuple[str, str, float]]:
        """Yield every ``(instance, concept, count)`` edge."""
        for instance, concepts in self._instance_concepts.items():
            for concept, count in concepts.items():
                yield instance, concept, count

    def vocabulary(self) -> frozenset[str]:
        """All instance surface forms — the segmenter's dictionary."""
        return frozenset(self._instance_concepts)

    def max_instance_tokens(self) -> int:
        """Longest instance length in tokens (bounds segmentation search)."""
        if not self._instance_concepts:
            return 0
        return max(len(inst.split()) for inst in self._instance_concepts)

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def pruned(self, min_count: float) -> "ConceptTaxonomy":
        """A copy with every edge below ``min_count`` removed.

        Real extractions are noisy in the low-count tail; pruning is how
        Probase-style taxonomies are cleaned before use.
        """
        result = ConceptTaxonomy()
        for instance, concept, count in self.iter_edges():
            if count >= min_count:
                result.add_edge(instance, concept, count, domain=self.domain_of(concept))
        return result

    def __len__(self) -> int:
        return self.num_edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConceptTaxonomy(instances={self.num_instances}, "
            f"concepts={self.num_concepts}, edges={self.num_edges})"
        )
