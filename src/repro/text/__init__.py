"""Lightweight NLP substrate: tokenization, normalization, POS, chunking.

Short texts (queries, ad keywords, titles) need only shallow processing; the
paper's point is that deep grammar is *unreliable* on them. This package
provides the shallow tools the core method needs plus the grammar-based
machinery the syntactic baseline needs.

Public names resolve on first use (:mod:`repro.utils.lazy`): the serving
router imports :func:`~repro.text.normalizer.normalize_fast` without
loading the tagger, chunker or speller.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.text.chunker import NounPhrase, chunk_noun_phrases, np_head
    from repro.text.lexicon import Lexicon, default_lexicon
    from repro.text.ngrams import character_ngrams, token_ngrams
    from repro.text.normalizer import normalize
    from repro.text.pos import PosTagger
    from repro.text.spelling import SpellingNormalizer, damerau_levenshtein
    from repro.text.tokenizer import Token, tokenize

__all__ = [
    "Token",
    "tokenize",
    "normalize",
    "Lexicon",
    "default_lexicon",
    "PosTagger",
    "NounPhrase",
    "chunk_noun_phrases",
    "np_head",
    "token_ngrams",
    "character_ngrams",
    "SpellingNormalizer",
    "damerau_levenshtein",
]

if not TYPE_CHECKING:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.text.chunker": ("NounPhrase", "chunk_noun_phrases", "np_head"),
            "repro.text.lexicon": ("Lexicon", "default_lexicon"),
            "repro.text.ngrams": ("character_ngrams", "token_ngrams"),
            "repro.text.normalizer": ("normalize",),
            "repro.text.pos": ("PosTagger",),
            "repro.text.spelling": ("SpellingNormalizer", "damerau_levenshtein"),
            "repro.text.tokenizer": ("Token", "tokenize"),
        },
    )
