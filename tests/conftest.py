"""Shared fixtures.

Heavy artifacts (taxonomy, logs, trained model) are session-scoped: they
are deterministic, read-only in tests, and rebuilding them per test would
dominate suite runtime.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import LogConfig, TrainingConfig, build_from_seed, generate_log, train_model
from repro.core import Segmenter
from repro.eval import build_eval_set
from repro.querylog.stats import LogStatistics

#: CI-only profile for the engine parity properties
#: (``pytest --hypothesis-profile=parity-long``): each draws this many
#: examples in place of its tier-1 count (:func:`parity_settings`).
PARITY_LONG = "parity-long"
settings.register_profile(PARITY_LONG, max_examples=600, deadline=None)


def parity_settings(examples: int) -> settings:
    """Settings for an engine parity property: ``examples`` in tier-1,
    the :data:`PARITY_LONG` profile's count when that profile is loaded
    (a ``max_examples`` set on the test would override the profile)."""
    if settings.get_current_profile_name() == PARITY_LONG:
        return settings(deadline=None)
    return settings(max_examples=examples, deadline=None)


@pytest.fixture(scope="session")
def taxonomy():
    return build_from_seed()


@pytest.fixture(scope="session")
def train_log(taxonomy):
    return generate_log(taxonomy, LogConfig(seed=7, num_intents=1500))


@pytest.fixture(scope="session")
def train_stats(train_log):
    return LogStatistics(train_log)


@pytest.fixture(scope="session")
def model(train_log, taxonomy):
    return train_model(train_log, taxonomy, TrainingConfig())


@pytest.fixture(scope="session")
def detector(model):
    return model.detector()


@pytest.fixture(scope="session")
def segmenter(taxonomy):
    return Segmenter(taxonomy)


@pytest.fixture(scope="session")
def heldout_log(taxonomy):
    return generate_log(taxonomy, LogConfig(seed=99, num_intents=700))


@pytest.fixture(scope="session")
def eval_examples(heldout_log):
    return build_eval_set(heldout_log, min_modifiers=1, max_examples=600)
