"""The configuration surface, pinned.

Every config field, constructor parameter and CLI option is a knob
somebody has to document, test and keep working. These tests list the
knobs that exist, so adding one (or bringing a deleted one back) means
editing this file in the same change, where a reviewer sees it.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect

import pytest

import repro.utils.lru as lru
from repro import build_default_model
from repro.cli import _build_parser
from repro.core.detector import DetectorConfig
from repro.core.pipeline import train_model
from repro.serving.router import Router, RouterConfig
from repro.serving.service import DetectionService, ServingConfig
from repro.training.incremental import IncrementalTrainer
from repro.training.vectorized import train_model_vectorized


def _fields(config_class) -> list[str]:
    return [field.name for field in dataclasses.fields(config_class)]


def _parameters(function) -> list[str]:
    return list(inspect.signature(function).parameters)[1:]  # drop self


def test_serving_config_fields():
    assert _fields(ServingConfig) == ["max_batch_size", "max_pending", "cache_size"]


def test_router_config_fields():
    assert _fields(RouterConfig) == [
        "max_inflight",
        "health_interval_s",
        "hedge_p99_us",
        "hedge_rate",
        "hedge_min_delay_us",
        "warmup_keys",
    ]


def test_detector_config_fields():
    assert _fields(DetectorConfig) == [
        "top_k_concepts",
        "instance_weight",
        "instance_smoothing",
        "min_evidence",
        "use_connector_heuristic",
        "contextualize_modifiers",
        "hierarchy_discount",
        "cache_size",
    ]


def test_serving_constructor_parameters():
    assert _parameters(DetectionService.__init__) == ["detector", "config"]
    assert _parameters(Router.__init__) == ["config"]


def test_training_parameters():
    # One fast build per capability: no switch selects a training path.
    reference = list(inspect.signature(train_model).parameters)
    assert reference == ["log", "taxonomy", "config", "timings"]
    assert list(inspect.signature(train_model_vectorized).parameters) == reference
    assert list(inspect.signature(build_default_model).parameters) == [
        "seed",
        "num_intents",
        "config",
    ]
    assert _parameters(IncrementalTrainer.__init__) == [
        "log",
        "taxonomy",
        "config",
        "timings",
    ]


def test_lru_public_names():
    assert lru.__all__ == ["LruCache", "remember"]
    defined_here = {
        name
        for name, value in vars(lru).items()
        if not name.startswith("_")
        and (inspect.isclass(value) or inspect.isfunction(value))
        and value.__module__ == lru.__name__
    }
    assert defined_here == set(lru.__all__)


_HELP = ["-h", "--help"]

COMMAND_OPTIONS = {
    "taxonomy-build": ["--out", "--from-corpus", "--sentences", "--min-count", "--seed"],
    "log-generate": ["--taxonomy", "--out", "--intents", "--seed", "--no-gold"],
    "train": [
        "--log",
        "--taxonomy",
        "--out",
        "--pattern-mass",
        "--max-patterns",
        "--no-classifier",
        "--reference",
        "--state",
        "--append",
        "--base",
        "--emit-snapshot",
        "--parent-snapshot",
    ],
    "snapshot": ["--model", "--out", "--spell", "--info"],
    "detect": [
        "--model",
        "--snapshot",
        "--input",
        "--json",
        "--spell",
        "--explain",
        "--stats",
    ],
    "serve": [
        "--model",
        "--snapshot",
        "--host",
        "--port",
        "--spell",
        "--max-batch-size",
        "--max-pending",
        "--cache-size",
    ],
    "route": [
        "--snapshot",
        "--host",
        "--port",
        "--replicas",
        "--max-inflight",
        "--max-batch-size",
        "--max-pending",
        "--cache-size",
        "--hedge-p99-us",
        "--hedge-rate",
        "--warmup-keys",
        "--health-interval",
    ],
    "replica": [
        "--snapshot",
        "--host",
        "--port",
        "--replica-id",
        "--generation",
        "--max-batch-size",
        "--max-pending",
        "--cache-size",
    ],
    "reload": ["--url", "--snapshot"],
    "evaluate": ["--model", "--log", "--max-examples", "--show-errors"],
    "patterns": ["--model", "--top"],
    "rewrite": ["--model"],
    "similar": ["--model"],
    "lint": [
        "--format",
        "--rule",
        "--output",
        "--list-rules",
        "--root",
    ],
}


def _option_strings(parser: argparse.ArgumentParser) -> list[str]:
    return [option for action in parser._actions for option in action.option_strings]


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = _build_parser()
    (subparsers,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return dict(subparsers.choices)


def test_top_level_options():
    assert _option_strings(_build_parser()) == [*_HELP, "--version"]


def test_subcommand_names():
    assert list(_subcommands()) == list(COMMAND_OPTIONS)


@pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
def test_subcommand_options(command):
    assert _option_strings(_subcommands()[command]) == [
        *_HELP,
        *COMMAND_OPTIONS[command],
    ]
