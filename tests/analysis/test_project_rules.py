"""REP007–REP010 on small fixture projects: each rule's positive and
negative cases, plus the layer table's own sanity (acyclic, closed)."""

from __future__ import annotations

import pytest

from repro.analysis import SourceFile, run_lint
from repro.analysis.rules.rep007_layering import ALLOWED_IMPORTS, is_allowed


def lint_rules(sources, rules, tests=None):
    return run_lint(
        list(sources),
        test_sources=list(tests or []),
        src_corpus=list(sources),
        rule_filter=set(rules),
    )


class TestRep007Layering:
    def test_upward_import_flagged(self, rule_ids_of):
        sources = [
            SourceFile("core/model.py", "from repro.serving import http\n"),
            SourceFile("serving/http.py", "X = 1\n"),
        ]
        result = lint_rules(sources, {"REP007"})
        assert rule_ids_of(result) == ["REP007"]
        (finding,) = result.active
        assert finding.path == "core/model.py"
        assert "`core` → `serving`" in finding.message

    def test_downward_import_clean(self, rule_ids_of):
        sources = [
            SourceFile("serving/http.py", "from repro.core import model\n"),
            SourceFile("core/model.py", "X = 1\n"),
        ]
        assert lint_rules(sources, {"REP007"}).active == []

    def test_deferred_upward_import_still_flagged(self, rule_ids_of):
        sources = [
            SourceFile(
                "core/model.py",
                "def compile_model():\n"
                "    from repro.serving import http\n"
                "    return http\n",
            ),
            SourceFile("serving/http.py", "X = 1\n"),
        ]
        assert rule_ids_of(lint_rules(sources, {"REP007"})) == ["REP007"]

    def test_load_time_cycle_flagged_within_a_subsystem(self, rule_ids_of):
        sources = [
            SourceFile("core/a.py", "from repro.core import b\n"),
            SourceFile("core/b.py", "from repro.core import a\n"),
        ]
        result = lint_rules(sources, {"REP007"})
        assert rule_ids_of(result) == ["REP007", "REP007"]
        assert all("load-time import cycle" in f.message for f in result.active)

    def test_deferring_one_edge_clears_the_cycle(self):
        sources = [
            SourceFile("core/a.py", "from repro.core import b\n"),
            SourceFile(
                "core/b.py",
                "def late():\n    from repro.core import a\n    return a\n",
            ),
        ]
        assert lint_rules(sources, {"REP007"}).active == []

    def test_undeclared_subsystem_flagged(self):
        sources = [
            SourceFile("widgets/w.py", "from repro.core import model\n"),
            SourceFile("core/model.py", "X = 1\n"),
        ]
        (finding,) = lint_rules(sources, {"REP007"}).active
        assert "not declared in the layer table" in finding.message

    def test_layer_table_is_a_dag(self):
        # Kahn's algorithm over the declared edges; "*" consumers sit on
        # top and are excluded. If this fails, the architecture diagram
        # in the README is a lie.
        edges = {
            subsystem: set(allowed)
            for subsystem, allowed in ALLOWED_IMPORTS.items()
            if "*" not in allowed
        }
        remaining = dict(edges)
        while remaining:
            leaves = [s for s, deps in remaining.items() if not deps & set(remaining)]
            assert leaves, f"cycle among {sorted(remaining)}"
            for leaf in leaves:
                del remaining[leaf]

    def test_is_allowed_same_subsystem_and_wildcard(self):
        assert is_allowed("core", "core")
        assert is_allowed("cli", "serving")
        assert not is_allowed("analysis", "core")


class TestRep008TransitiveBlocking:
    HELPER = (
        "import time\n"
        "\n"
        "\n"
        "def read_header(path):\n"
        "    time.sleep(0.5)\n"
        "    return path\n"
    )

    def test_buried_blocking_call_flagged(self, rule_ids_of):
        sources = [
            SourceFile("runtime/u.py", self.HELPER),
            SourceFile(
                "serving/h.py",
                "from repro.runtime.u import read_header\n"
                "\n"
                "\n"
                "async def handle(path):\n"
                "    return read_header(path)\n",
            ),
        ]
        result = lint_rules(sources, {"REP008"})
        assert rule_ids_of(result) == ["REP008"]
        (finding,) = result.active
        assert finding.path == "serving/h.py"
        assert "time.sleep" in finding.message
        assert "read_header" in finding.message  # the chain is in the message

    def test_two_hop_chain_flagged(self):
        sources = [
            SourceFile("runtime/u.py", self.HELPER),
            SourceFile(
                "serving/h.py",
                "from repro.runtime.u import read_header\n"
                "\n"
                "\n"
                "def middle(path):\n"
                "    return read_header(path)\n"
                "\n"
                "\n"
                "async def handle(path):\n"
                "    return middle(path)\n",
            ),
        ]
        (finding,) = lint_rules(sources, {"REP008"}).active
        assert "middle" in finding.message and "read_header" in finding.message

    def test_direct_blocking_call_is_rep002s_not_rep008s(self):
        sources = [
            SourceFile(
                "serving/h.py",
                "import time\n"
                "\n"
                "\n"
                "async def handle(path):\n"
                "    time.sleep(0.5)\n"
                "    return path\n",
            )
        ]
        assert lint_rules(sources, {"REP008"}).active == []

    def test_awaited_async_callee_not_followed(self):
        sources = [
            SourceFile(
                "serving/h.py",
                "import asyncio\n"
                "\n"
                "\n"
                "async def nap():\n"
                "    await asyncio.sleep(0.5)\n"
                "\n"
                "\n"
                "async def handle(path):\n"
                "    await nap()\n"
                "    return path\n",
            )
        ]
        assert lint_rules(sources, {"REP008"}).active == []

    def test_non_serving_async_def_out_of_scope(self):
        sources = [
            SourceFile("runtime/u.py", self.HELPER),
            SourceFile(
                "training/t.py",
                "from repro.runtime.u import read_header\n"
                "\n"
                "\n"
                "async def fold(path):\n"
                "    return read_header(path)\n",
            ),
        ]
        assert lint_rules(sources, {"REP008"}).active == []


class TestRep009Protocol:
    SERVER = (
        "def respond(op, body):\n"
        '    if op == "detect":\n'
        "        return 1\n"
        '    if op == "stats":\n'
        "        return 2\n"
        "    return None\n"
    )

    def test_dispatched_but_never_sent(self, rule_ids_of):
        sources = [
            SourceFile("serving/replica.py", self.SERVER),
            SourceFile(
                "serving/router.py",
                'def ping(client):\n    return client.request({"op": "detect"})\n',
            ),
        ]
        result = lint_rules(sources, {"REP009"})
        assert rule_ids_of(result) == ["REP009"]
        (finding,) = result.active
        assert finding.path == "serving/replica.py"
        assert "`stats`" in finding.message and "no serving-side client" in finding.message

    def test_sent_but_never_dispatched(self):
        sources = [
            SourceFile("serving/replica.py", self.SERVER),
            SourceFile(
                "serving/router.py",
                "def ping(client):\n"
                '    client.request({"op": "detect"})\n'
                '    client.request({"op": "stats"})\n'
                '    return client.request({"op": "flush"})\n',
            ),
        ]
        (finding,) = lint_rules(sources, {"REP009"}).active
        assert finding.path == "serving/router.py"
        assert "`flush`" in finding.message and "never dispatches" in finding.message

    def test_matching_op_sets_clean(self):
        sources = [
            SourceFile("serving/replica.py", self.SERVER),
            SourceFile(
                "serving/router.py",
                "def ping(client):\n"
                '    client.request({"op": "detect"})\n'
                '    return client.request({"op": "stats"})\n',
            ),
        ]
        assert lint_rules(sources, {"REP009"}).active == []

    def test_no_replica_module_means_abstain(self):
        sources = [
            SourceFile(
                "serving/router.py",
                'def ping(client):\n    return client.request({"op": "flush"})\n',
            )
        ]
        assert lint_rules(sources, {"REP009"}).active == []

    def test_tested_stats_key_nothing_produces(self):
        sources = [
            SourceFile("serving/replica.py", self.SERVER),
            SourceFile(
                "serving/router.py",
                "def ping(client):\n"
                '    client.request({"op": "detect"})\n'
                '    return client.request({"op": "stats"})\n',
            ),
        ]
        tests = [
            SourceFile(
                "serving/test_stats.py",
                "def test_stats(stats):\n"
                '    assert stats["phantom_metric"] == 1\n',
            )
        ]
        (finding,) = lint_rules(sources, {"REP009"}, tests=tests).active
        assert finding.path == "tests/serving/test_stats.py"
        assert "`phantom_metric`" in finding.message

    def test_produced_stats_key_clean(self):
        sources = [
            SourceFile("serving/replica.py", self.SERVER),
            SourceFile(
                "serving/router.py",
                "def ping(client):\n"
                '    client.request({"op": "detect"})\n'
                '    client.request({"op": "stats"})\n'
                '    return {"phantom_metric": 1}\n',
            ),
        ]
        tests = [
            SourceFile(
                "serving/test_stats.py",
                "def test_stats(stats):\n"
                '    assert stats["phantom_metric"] == 1\n',
            )
        ]
        assert lint_rules(sources, {"REP009"}, tests=tests).active == []


class TestRep010DeadApi:
    def test_unreferenced_public_in_reachable_module(self, rule_ids_of):
        sources = [
            SourceFile("__init__.py", "from repro.core import model\n"),
            SourceFile(
                "core/model.py",
                "def used():\n    return 1\n"
                "\n"
                "\n"
                "def orphan_helper():\n    return 2\n",
            ),
        ]
        tests = [SourceFile("test_model.py", "used\n")]
        result = lint_rules(sources, {"REP010"}, tests=tests)
        assert rule_ids_of(result) == ["REP010"]
        (finding,) = result.active
        assert "`orphan_helper`" in finding.message
        assert "no consumer" in finding.message

    def test_unreachable_module_flagged(self):
        sources = [
            SourceFile("__init__.py", ""),
            SourceFile("core/island.py", "def marooned():\n    return 1\n"),
        ]
        tests = [SourceFile("test_nothing.py", "import repro\n")]
        (finding,) = lint_rules(sources, {"REP010"}, tests=tests).active
        assert finding.path == "core/island.py"
        assert "unreachable" in finding.message

    def test_test_reference_keeps_symbol_alive(self):
        sources = [
            SourceFile("__init__.py", ""),
            SourceFile("core/island.py", "def marooned():\n    return 1\n"),
        ]
        tests = [
            SourceFile(
                "test_island.py",
                "from repro.core.island import marooned\n",
            )
        ]
        assert lint_rules(sources, {"REP010"}, tests=tests).active == []

    def test_own_module_use_keeps_symbol_alive(self):
        sources = [
            SourceFile("__init__.py", "from repro.core import model\n"),
            SourceFile(
                "core/model.py",
                "def helper():\n    return 1\n"
                "\n"
                "\n"
                "TABLE = {1: helper}\n",
            ),
        ]
        tests = [SourceFile("test_model.py", "TABLE\n")]
        assert lint_rules(sources, {"REP010"}, tests=tests).active == []

    def test_private_symbols_exempt(self):
        sources = [
            SourceFile("__init__.py", "from repro.core import model\n"),
            SourceFile("core/model.py", "def _internal():\n    return 1\n"),
        ]
        tests = [SourceFile("test_model.py", "model\n")]
        assert lint_rules(sources, {"REP010"}, tests=tests).active == []

    def test_abstains_without_a_test_corpus(self):
        sources = [
            SourceFile("core/island.py", "def marooned():\n    return 1\n")
        ]
        assert lint_rules(sources, {"REP010"}).active == []


class TestBenchmarkScope:
    def test_bench_files_only_face_the_scoped_rules(self, rule_ids_of):
        # Only the scoped rules run on a benchmark: the unseeded
        # shuffle (REP001) gates.
        sources = [
            SourceFile(
                "benchmarks/bench_x.py",
                "import random\n"
                "\n"
                "\n"
                "def run(items):\n"
                "    handle = open('results.json')\n"
                "    random.shuffle(items)\n"
                "    return handle\n",
            )
        ]
        result = run_lint(sources, src_corpus=sources)
        assert rule_ids_of(result) == ["REP001"]
