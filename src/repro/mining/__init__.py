"""Instance-level head-modifier pair mining from a query log.

This is step 1 of the paper's pipeline: acquire a large number of
``(modifier, head)`` pairs at the *instance* level, with no manual
labelling, by exploiting regularities of the log itself:

- **deletion test** (:class:`DeletionMiner`): for a query ``q`` split into
  (left, right), the side whose standalone sub-query attracts clicks on the
  same host+path as ``q`` is the head; the other side is the modifier.
- **lexical patterns** (:class:`LexicalPatternMiner`): surfaces like
  "X for Y" / "X in Y" name the head on the left explicitly.

Both miners emit :class:`MinedPair` evidence; :func:`mine_pairs` merges and
filters them.

Public names resolve on first use (:mod:`repro.utils.lazy`), so importing
the package loads none of its submodules.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.mining.pairs import (
        DeletionMiner,
        LexicalPatternMiner,
        MinedPair,
        MiningConfig,
        PairCollection,
        mine_pairs,
    )
    from repro.mining.sessions import (
        ReformulationEvidence,
        ReformulationMiner,
        SessionConstraintClassifier,
    )

__all__ = [
    "MinedPair",
    "MiningConfig",
    "PairCollection",
    "DeletionMiner",
    "LexicalPatternMiner",
    "mine_pairs",
    "ReformulationEvidence",
    "ReformulationMiner",
    "SessionConstraintClassifier",
]

if not TYPE_CHECKING:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.mining.pairs": (
                "DeletionMiner",
                "LexicalPatternMiner",
                "MinedPair",
                "MiningConfig",
                "PairCollection",
                "mine_pairs",
            ),
            "repro.mining.sessions": (
                "ReformulationEvidence",
                "ReformulationMiner",
                "SessionConstraintClassifier",
            ),
        },
    )
