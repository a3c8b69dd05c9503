"""The compiled detector's one result assembly (``CompiledDetector._finish``).

Scalar ``detect`` and the batch engine both build every
:class:`~repro.core.detector.Detection` there, from three term memos and
the constraint memo. These tests pin what the parity suites do not: that
a classifier without constraint tables is refused, the memos' bound,
that both paths share one term object per key, and the automaton's
check of the kind codes the engine's segments come from.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.constraints import RuleConstraintClassifier
from repro.core.detector import DetectorConfig, TermRole
from repro.errors import ModelError
from repro.runtime.compiled import MIN_VECTORIZED_BATCH
from repro.runtime.automaton import SegmentationAutomaton


@pytest.fixture(scope="module")
def compiled(model):
    return model.compile()


def _queries(eval_examples, count):
    queries = [example.query for example in eval_examples[:count]]
    assert len(queries) >= MIN_VECTORIZED_BATCH
    return queries


def test_non_table_classifier_is_refused(model, eval_examples):
    """The compiled detector runs the constraint step as tables only:
    compiling with any other classifier (the rule baseline) is refused,
    and that classifier keeps running on the reference detector."""
    rule_model = dataclasses.replace(model, classifier=RuleConstraintClassifier())
    with pytest.raises(ModelError, match="needs a ConstraintClassifier"):
        rule_model.compile()
    reference = rule_model.detector()
    flags = {
        term.is_constraint
        for example in eval_examples[:200]
        for term in reference.detect(example.query).terms
        if term.role is TermRole.MODIFIER
    }
    assert flags == {True, False}


@pytest.mark.parametrize("cache_size", [1, 7])
def test_memos_stay_within_cache_size(model, detector, eval_examples, cache_size):
    compiled = model.compile(config=DetectorConfig(cache_size=cache_size))
    constraints = compiled._constraints
    assert constraints is not None

    def sizes():
        return [
            len(compiled._head_terms),
            len(compiled._modifier_terms),
            len(compiled._other_terms),
            len(constraints._vectors),
            len(constraints._decisions),
        ]

    queries = _queries(eval_examples, 160)
    for query in queries[:80]:
        assert compiled.detect(query) == detector.detect(query)
        assert max(sizes()) <= cache_size
    for start in range(80, len(queries), MIN_VECTORIZED_BATCH):
        chunk = queries[start : start + MIN_VECTORIZED_BATCH]
        assert compiled.detect_batch(chunk) == [detector.detect(q) for q in chunk]
        assert max(sizes()) <= cache_size


def test_scalar_and_engine_share_terms(compiled, eval_examples):
    queries = [q for q in _queries(eval_examples, 120) if "." not in q]
    scalar = [compiled.detect(query) for query in queries]
    batch = compiled.detect_batch(queries)
    assert compiled._engine is not None
    modifiers = 0
    for one, other in zip(scalar, batch):
        assert len(one.terms) == len(other.terms)
        for mine, theirs in zip(one.terms, other.terms):
            assert mine is theirs
            modifiers += mine.role is TermRole.MODIFIER
    assert modifiers > 0


@pytest.mark.parametrize("code", [-1, 6])
def test_automaton_refuses_unknown_kind_code(compiled, code):
    """The engine emits kind strings straight from the automaton's codes,
    so a code outside the kind table is refused when the automaton is
    built (a snapshot's ``vseg_token_kinds`` section lands here)."""
    original = compiled._automaton
    kinds = original.token_kinds[:-1].copy()
    kinds[0] = code
    with pytest.raises(ModelError, match="kind code"):
        SegmentationAutomaton(
            original.tokens,
            original.token_scores[:-1],
            kinds,
            original.edge_keys,
            original.edge_targets,
            original.terminal,
            original.max_span,
        )
