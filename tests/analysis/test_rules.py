"""Per-rule positive/negative fixtures.

Each rule gets at least one snippet that must be flagged and one
near-miss that must not be — the negative cases pin the false-positive
boundary, which is what makes the rules trustworthy enough to gate CI.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import SourceFile, run_lint


def src(code):
    return textwrap.dedent(code).lstrip("\n")


class TestRep001Determinism:
    def test_flags_unseeded_module_rng(self, lint_one, rule_ids_of):
        result = lint_one(
            "training/shuffle.py",
            src(
                """
                import random

                def jumble(items):
                    random.shuffle(items)
                    return items
                """
            ),
        )
        assert rule_ids_of(result) == ["REP001"]
        assert "random.shuffle" in result.active[0].message

    def test_flags_from_import_alias(self, lint_one, rule_ids_of):
        result = lint_one(
            "mining/pick.py",
            src(
                """
                from random import choice

                def pick(items):
                    return choice(items)
                """
            ),
        )
        assert rule_ids_of(result) == ["REP001"]

    def test_allows_seeded_generator(self, lint_one):
        result = lint_one(
            "training/seeded.py",
            src(
                """
                import random

                def jumble(items, seed):
                    rng = random.Random(seed)
                    rng.shuffle(items)
                    return items
                """
            ),
        )
        assert result.active == []

    def test_allows_numpy_default_rng_flags_global(self, lint_one, rule_ids_of):
        result = lint_one(
            "runtime/noise.py",
            src(
                """
                import numpy as np

                def good(seed):
                    return np.random.default_rng(seed).normal()

                def bad():
                    return np.random.normal()
                """
            ),
        )
        assert rule_ids_of(result) == ["REP001"]
        assert "numpy.random.normal" in result.active[0].message

    def test_flags_unsorted_listing_allows_sorted(self, lint_one, rule_ids_of):
        result = lint_one(
            "training/scan.py",
            src(
                """
                import os

                def shards(root):
                    return [name for name in os.listdir(root)]

                def shards_sorted(root):
                    return sorted(os.listdir(root))
                """
            ),
        )
        assert rule_ids_of(result) == ["REP001"]
        assert result.active[0].line == 4

    def test_flags_pathlib_glob(self, lint_one, rule_ids_of):
        result = lint_one(
            "runtime/files.py",
            src(
                """
                def snapshots(root):
                    return list(root.glob("*.hdms"))
                """
            ),
        )
        assert rule_ids_of(result) == ["REP001"]

    def test_flags_set_iteration_allows_membership(self, lint_one, rule_ids_of):
        result = lint_one(
            "mining/dedup.py",
            src(
                """
                def ordered(items):
                    seen = set(items)
                    out = []
                    for item in items:    # membership loop: fine
                        if item in seen:
                            out.append(item)
                    for item in set(out):  # unordered iteration: flagged
                        print(item)
                    return [x for x in sorted(set(out))]  # sorted: fine
                """
            ),
        )
        assert rule_ids_of(result) == ["REP001"]
        assert result.active[0].line == 7

    def test_querylog_set_iteration_is_flagged(self, lint_one, rule_ids_of):
        # Log statistics feed snapshot bytes: counting terms in set
        # order made the snapshot depend on PYTHONHASHSEED.
        result = lint_one(
            "querylog/stats.py",
            src(
                """
                def count(tokens, counter):
                    for term in set(tokens):
                        counter[term] += 1
                """
            ),
        )
        assert rule_ids_of(result) == ["REP001"]

    def test_out_of_scope_directory_not_checked(self, lint_one):
        result = lint_one(
            "eval/shuffle.py",
            src(
                """
                import random

                def jumble(items):
                    random.shuffle(items)
                """
            ),
        )
        assert result.active == []


class TestRep002Blocking:
    def test_flags_time_sleep_in_async(self, lint_one, rule_ids_of):
        result = lint_one(
            "serving/slow.py",
            src(
                """
                import time

                async def handle(request):
                    time.sleep(0.1)
                    return request
                """
            ),
        )
        assert rule_ids_of(result) == ["REP002"]
        assert "time.sleep" in result.active[0].message

    def test_flags_subprocess_and_open(self, lint_one, rule_ids_of):
        result = lint_one(
            "serving/io.py",
            src(
                """
                import subprocess

                async def run(cmd, path):
                    subprocess.run(cmd)
                    with open(path) as handle:
                        return handle.read()
                """
            ),
        )
        assert rule_ids_of(result) == ["REP002", "REP002"]

    def test_sync_def_and_nested_sync_def_not_flagged(self, lint_one):
        result = lint_one(
            "serving/ok.py",
            src(
                """
                import time

                def warm_up():
                    time.sleep(0.1)

                async def handle(request):
                    def blocking_helper():
                        time.sleep(0.1)   # runs on an executor thread
                    return blocking_helper
                """
            ),
        )
        assert result.active == []

    def test_asyncio_sleep_not_flagged(self, lint_one):
        result = lint_one(
            "serving/fine.py",
            src(
                """
                import asyncio

                async def backoff():
                    await asyncio.sleep(0.1)
                """
            ),
        )
        assert result.active == []

    def test_outside_serving_not_checked(self, lint_one):
        result = lint_one(
            "runtime/async_tool.py",
            src(
                """
                import time

                async def tick():
                    time.sleep(1)
                """
            ),
        )
        assert result.active == []


class TestRep003LockAcrossAwait:
    def test_flags_sync_lock_around_await(self, lint_one, rule_ids_of):
        result = lint_one(
            "serving/locky.py",
            src(
                """
                async def update(self, key):
                    with self._lock:
                        await self.refresh(key)
                """
            ),
        )
        assert rule_ids_of(result) == ["REP003"]

    def test_flags_threading_lock_constructor(self, lint_one, rule_ids_of):
        result = lint_one(
            "runtime/locky.py",
            src(
                """
                import threading

                async def once(self):
                    with threading.Lock():
                        await self.work()
                """
            ),
        )
        assert rule_ids_of(result) == ["REP003"]

    def test_async_with_and_no_await_not_flagged(self, lint_one):
        result = lint_one(
            "serving/fine.py",
            src(
                """
                async def update(self, key):
                    async with self._lock:      # asyncio lock: cooperative
                        await self.refresh(key)
                    with self._lock:            # no await inside: fine
                        self.counter += 1
                """
            ),
        )
        assert result.active == []


class TestRep004ResourceGuards:
    def test_flags_unguarded_executor(self, lint_one, rule_ids_of):
        result = lint_one(
            "training/leak.py",
            src(
                """
                from concurrent.futures import ProcessPoolExecutor

                def mine(shards):
                    executor = ProcessPoolExecutor(max_workers=4)
                    return [executor.submit(len, shard) for shard in shards]
                """
            ),
        )
        assert rule_ids_of(result) == ["REP004"]

    def test_with_block_is_a_guard(self, lint_one):
        result = lint_one(
            "training/fine.py",
            src(
                """
                from concurrent.futures import ProcessPoolExecutor

                def mine(shards):
                    with ProcessPoolExecutor(max_workers=4) as executor:
                        return list(executor.map(len, shards))
                """
            ),
        )
        assert result.active == []

    def test_try_finally_shutdown_is_a_guard(self, lint_one):
        result = lint_one(
            "training/fine2.py",
            src(
                """
                from concurrent.futures import ProcessPoolExecutor

                def mine(shards):
                    executor = ProcessPoolExecutor(max_workers=4)
                    try:
                        return list(executor.map(len, shards))
                    finally:
                        executor.shutdown(wait=True)
                """
            ),
        )
        assert result.active == []

    def test_self_attribute_guarded_by_class_close(self, lint_one):
        result = lint_one(
            "serving/pooled.py",
            src(
                """
                from concurrent.futures import ThreadPoolExecutor

                class Service:
                    def start(self):
                        self._executor = ThreadPoolExecutor(max_workers=1)

                    def close(self):
                        self._executor.shutdown(wait=True)
                """
            ),
        )
        assert result.active == []

    def test_self_attribute_without_class_guard_flagged(self, lint_one, rule_ids_of):
        result = lint_one(
            "serving/pooled_leak.py",
            src(
                """
                from concurrent.futures import ThreadPoolExecutor

                class Service:
                    def start(self):
                        self._executor = ThreadPoolExecutor(max_workers=1)
                """
            ),
        )
        assert rule_ids_of(result) == ["REP004"]

    def test_weakref_finalize_is_a_guard(self, lint_one):
        result = lint_one(
            "serving/finalized.py",
            src(
                """
                import weakref
                from concurrent.futures import ThreadPoolExecutor

                class Service:
                    def start(self):
                        self._executor = ThreadPoolExecutor(max_workers=1)
                        weakref.finalize(self, self._executor.shutdown)
                """
            ),
        )
        assert result.active == []

    def test_unguarded_mmap_flagged(self, lint_one, rule_ids_of):
        result = lint_one(
            "runtime/mapping.py",
            src(
                """
                import mmap

                def view(handle):
                    return mmap.mmap(handle.fileno(), 0)
                """
            ),
        )
        assert rule_ids_of(result) == ["REP004"]


class TestRep005ParityCoverage:
    VECTORIZED = src(
        '''
        def derive_table_vectorized(pairs):
            """Vectorized twin of the reference derivation."""
            return pairs


        def mystery_function(rows):
            """No twin, no test."""
            return rows
        '''
    )

    def _run(self, tests_text):
        sources = [SourceFile("training/vectorized.py", self.VECTORIZED)]
        src_corpus = sources + [
            SourceFile("core/tables.py", "def derive_table(pairs):\n    return pairs\n")
        ]
        tests = [SourceFile("training/test_vectorized.py", tests_text)]
        # `mystery_function` is deliberately consumer-free, so REP010
        # would (correctly) flag it too; this class pins REP005 alone.
        return run_lint(
            sources,
            test_sources=tests,
            src_corpus=src_corpus,
            rule_filter={"REP005"},
        )

    def test_twin_and_test_coverage_enforced(self, rule_ids_of):
        result = self._run("def test_derive():\n    derive_table_vectorized([])\n")
        assert rule_ids_of(result) == ["REP005", "REP005"]
        assert all(f.rule == "REP005" for f in result.active)
        assert {"mystery_function"} == {
            message.split("`")[1] for message in (f.message for f in result.active)
        }

    def test_docstring_xref_names_a_twin(self, rule_ids_of):
        sources = [
            SourceFile(
                "runtime/compiled.py",
                src(
                    '''
                    class FlatTable:
                        """Flattened :class:`repro.core.tables.Table`."""
                    '''
                ),
            )
        ]
        tests = [SourceFile("test_runtime.py", "FlatTable")]
        result = run_lint(sources, test_sources=tests, src_corpus=sources)
        assert result.active == []

    def test_reference_base_class_is_a_twin(self, rule_ids_of):
        sources = [
            SourceFile(
                "runtime/compiled.py",
                src(
                    '''
                    class CompiledSegmenter(Segmenter):
                        """Fast segmentation."""
                    '''
                ),
            )
        ]
        src_corpus = sources + [
            SourceFile("core/segmentation.py", "class Segmenter:\n    pass\n")
        ]
        tests = [SourceFile("test_seg.py", "CompiledSegmenter")]
        result = run_lint(sources, test_sources=tests, src_corpus=src_corpus)
        assert result.active == []

    def test_private_symbols_ignored(self):
        sources = [
            SourceFile("runtime/compiled.py", "def _helper(x):\n    return x\n")
        ]
        result = run_lint(sources, test_sources=[SourceFile("t.py", "")])
        assert result.active == []


class TestRep006BroadExcept:
    def test_flags_bare_except(self, lint_one, rule_ids_of):
        result = lint_one(
            "runtime/swallow.py",
            src(
                """
                def run(task):
                    try:
                        return task()
                    except:
                        return None
                """
            ),
        )
        assert rule_ids_of(result) == ["REP006"]
        assert "bare" in result.active[0].message

    def test_flags_broad_except_without_reraise(self, lint_one, rule_ids_of):
        result = lint_one(
            "core/swallow.py",
            src(
                """
                def run(task):
                    try:
                        return task()
                    except Exception:
                        return None
                """
            ),
        )
        assert rule_ids_of(result) == ["REP006"]

    def test_reraise_translation_not_flagged(self, lint_one):
        result = lint_one(
            "training/translate.py",
            src(
                """
                from repro.errors import ServingError

                def run(task, replica):
                    try:
                        return task()
                    except Exception as exc:
                        raise ServingError(f"replica {replica} failed: {exc}") from exc
                """
            ),
        )
        assert result.active == []

    def test_specific_except_not_flagged(self, lint_one):
        result = lint_one(
            "core/fine.py",
            src(
                """
                def load(path):
                    try:
                        return open(path).read()
                    except (OSError, ValueError):
                        return None
                """
            ),
        )
        assert result.active == []


class TestRuleFilter:
    def test_rule_filter_limits_findings(self, lint_one, rule_ids_of):
        source = src(
            """
            import random, time

            async def handle(items):
                random.shuffle(items)
                time.sleep(1)
            """
        )
        everything = lint_one("serving/mixed.py", source)
        only_blocking = lint_one(
            "serving/mixed.py", source, rule_filter={"REP002"}
        )
        assert rule_ids_of(only_blocking) == ["REP002"]
        # serving/ is out of REP001's scope, so the unfiltered run agrees.
        assert rule_ids_of(everything) == ["REP002"]
