"""The repo lints clean — and the acceptance canaries: injecting the
exact regressions the rules exist to catch must flip the exit to 1."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import Baseline, run_lint
from repro.analysis.engine import discover_project, find_project_root

PROJECT_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def corpus():
    sources, tests, src_corpus = discover_project(PROJECT_ROOT)
    return sources, tests, src_corpus


def test_find_project_root_from_here():
    assert find_project_root(Path(__file__).parent) == PROJECT_ROOT


def test_repo_is_clean_with_empty_baseline(corpus):
    sources, tests, src_corpus = corpus
    baseline = Baseline.load(PROJECT_ROOT / "lint-baseline.json")
    assert len(baseline) == 0, "the baseline must stay empty — fix, don't grandfather"
    result = run_lint(
        sources, test_sources=tests, baseline=baseline, src_corpus=src_corpus
    )
    assert result.clean, "\n".join(f.render() for f in result.active)
    assert result.active == []
    assert result.stale_baseline == {}


def _inject(corpus, relpath, transform):
    """Rebuild the lint inputs with one file's text transformed."""
    sources, tests, src_corpus = corpus
    mutated = []
    hit = False
    for source in sources:
        if source.relpath == relpath:
            hit = True
            source = type(source)(source.relpath, transform(source.text))
        mutated.append(source)
    assert hit, f"{relpath} not found in the lint corpus"
    return mutated, tests, mutated


def test_canary_blocking_sleep_in_http_handler(corpus):
    """Acceptance check: ``time.sleep`` in serving/http.py → REP002."""

    def transform(text):
        needle = "status, payload = await self._respond(method, target, body)"
        assert needle in text
        return text.replace(
            needle,
            "import time\n            time.sleep(0.5)\n            " + needle,
            1,
        )

    sources, tests, src_corpus = _inject(corpus, "serving/http.py", transform)
    result = run_lint(sources, test_sources=tests, src_corpus=src_corpus)
    assert not result.clean
    assert any(
        f.rule == "REP002" and f.path == "serving/http.py" for f in result.active
    )


def test_canary_unseeded_shuffle_in_training(corpus):
    """Acceptance check: unseeded shuffle in training/incremental.py → REP001."""

    def transform(text):
        return text + (
            "\n\ndef _jumbled_shards(shards):\n"
            "    import random\n"
            "    random.shuffle(shards)\n"
            "    return shards\n"
        )

    sources, tests, src_corpus = _inject(corpus, "training/incremental.py", transform)
    result = run_lint(sources, test_sources=tests, src_corpus=src_corpus)
    assert not result.clean
    assert any(
        f.rule == "REP001" and f.path == "training/incremental.py"
        for f in result.active
    )


def test_canary_illegal_core_to_serving_import(corpus):
    """Acceptance check: `core → serving` import in core/model.py → REP007."""

    def transform(text):
        return text + "\nfrom repro.serving import router as _layering_canary\n"

    sources, tests, src_corpus = _inject(corpus, "core/model.py", transform)
    result = run_lint(sources, test_sources=tests, src_corpus=src_corpus)
    assert not result.clean
    assert any(
        f.rule == "REP007"
        and f.path == "core/model.py"
        and "`core` → `serving`" in f.message
        for f in result.active
    )


def test_canary_buried_blocking_sleep_under_async_handler(corpus):
    """Acceptance check: ``time.sleep`` two hops below an ``async def``
    in serving/http.py — invisible to file-local REP002 — → REP008."""

    def transform(text):
        needle = "status, payload = await self._respond(method, target, body)"
        assert needle in text
        text = text.replace(
            needle, "_warm_disk_canary()\n            " + needle, 1
        )
        return text + (
            "\n\ndef _warm_disk_canary():\n"
            "    import time\n"
            "    time.sleep(0.5)\n"
        )

    sources, tests, src_corpus = _inject(corpus, "serving/http.py", transform)
    result = run_lint(sources, test_sources=tests, src_corpus=src_corpus)
    assert not result.clean
    assert any(
        f.rule == "REP008"
        and f.path == "serving/http.py"
        and "time.sleep" in f.message
        and "_warm_disk_canary" in f.message
        for f in result.active
    )
    # And REP002 stays silent: the blocking call is not *in* the
    # coroutine, which is exactly why REP008 exists.
    assert not any(f.rule == "REP002" for f in result.active)


def test_graph_json_artifact_is_deterministic(corpus):
    """`repro lint --graph json` twice → byte-identical documents."""
    import json

    from repro.analysis.graph import _CACHE, build_graphs, graphs_to_dict

    _, _, src_corpus = corpus
    _CACHE.clear()
    first = json.dumps(graphs_to_dict(build_graphs(src_corpus)), sort_keys=True)
    _CACHE.clear()
    second = json.dumps(graphs_to_dict(build_graphs(src_corpus)), sort_keys=True)
    assert first == second


def test_py_typed_marker_ships():
    assert (PROJECT_ROOT / "src" / "repro" / "py.typed").exists()
