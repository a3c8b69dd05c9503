"""Probase-style isA taxonomy substrate.

The paper conceptualizes instance-level head-modifier pairs through a large
isA network with co-occurrence counts (Probase). This package implements the
same data structure and the same construction pipeline:

- :mod:`repro.taxonomy.store` — instance↔concept edges with counts.
- :mod:`repro.taxonomy.typicality` — ``P(concept|instance)`` and
  ``P(instance|concept)`` with smoothing.
- :mod:`repro.taxonomy.seed_data` — a curated multi-domain knowledge base.
- :mod:`repro.taxonomy.corpus` — a synthetic web-corpus generator emitting
  Hearst-pattern sentences from the seed.
- :mod:`repro.taxonomy.hearst` — the Hearst-pattern extractor.
- :mod:`repro.taxonomy.builder` — builds a taxonomy from the seed directly
  or by running extraction over a corpus.
- :mod:`repro.taxonomy.serialization` — TSV save/load.

Public names resolve on first use (:mod:`repro.utils.lazy`), so importing
the package loads none of its submodules.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.taxonomy.builder import (
        TaxonomyBuilder,
        build_from_corpus,
        build_from_seed,
    )
    from repro.taxonomy.corpus import CorpusConfig, generate_corpus
    from repro.taxonomy.hearst import HearstExtraction, extract_isa_pairs
    from repro.taxonomy.seed_data import (
        ConceptSeed,
        PatternSeed,
        all_domains,
        concept_seeds,
        pattern_seeds,
    )
    from repro.taxonomy.serialization import load_taxonomy_tsv, save_taxonomy_tsv
    from repro.taxonomy.store import ConceptTaxonomy
    from repro.taxonomy.typicality import TypicalityScorer

__all__ = [
    "ConceptTaxonomy",
    "TypicalityScorer",
    "TaxonomyBuilder",
    "build_from_seed",
    "build_from_corpus",
    "CorpusConfig",
    "generate_corpus",
    "HearstExtraction",
    "extract_isa_pairs",
    "ConceptSeed",
    "PatternSeed",
    "concept_seeds",
    "pattern_seeds",
    "all_domains",
    "save_taxonomy_tsv",
    "load_taxonomy_tsv",
]

if not TYPE_CHECKING:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.taxonomy.builder": (
                "TaxonomyBuilder",
                "build_from_corpus",
                "build_from_seed",
            ),
            "repro.taxonomy.corpus": ("CorpusConfig", "generate_corpus"),
            "repro.taxonomy.hearst": ("HearstExtraction", "extract_isa_pairs"),
            "repro.taxonomy.seed_data": (
                "ConceptSeed",
                "PatternSeed",
                "all_domains",
                "concept_seeds",
                "pattern_seeds",
            ),
            "repro.taxonomy.serialization": ("load_taxonomy_tsv", "save_taxonomy_tsv"),
            "repro.taxonomy.store": ("ConceptTaxonomy",),
            "repro.taxonomy.typicality": ("TypicalityScorer",),
        },
    )
