"""The whole-program graph layer: import edges (deferred detection,
load-time cycles), call resolution across files/classes/re-exports,
and order-independence under shuffled discovery (hypothesis)."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import SourceFile
from repro.analysis.graph import (
    _CACHE,
    build_graphs,
    module_name,
    subsystem_of,
)


def fresh_graphs(sources):
    """Build with the content-hash cache emptied, so construction (not
    cache identity) is what every assertion exercises."""
    _CACHE.clear()
    return build_graphs(sources)


def structure(graphs):
    """The graph parts the project rules iterate, in iteration order:
    modules, import edges, functions, and resolved and external call
    sites. Rule output order follows this order."""
    return (
        graphs.modules.modules,
        graphs.modules.edges,
        tuple(graphs.calls.functions.items()),
        graphs.calls.calls,
        graphs.calls.externals,
    )


PROJECT = [
    SourceFile(
        "utils/iteration.py",
        "def stable_sort(items):\n    return sorted(items)\n",
    ),
    SourceFile(
        "core/model.py",
        "from repro.utils.iteration import stable_sort\n"
        "\n"
        "\n"
        "class Detector:\n"
        "    def __init__(self):\n"
        "        self.ready = True\n"
        "\n"
        "    def detect(self, query):\n"
        "        return stable_sort(query.split())\n"
        "\n"
        "\n"
        "def build_detector():\n"
        "    return Detector()\n",
    ),
    SourceFile(
        "serving/service.py",
        "import time\n"
        "from repro.core.model import build_detector\n"
        "\n"
        "\n"
        "def warm_up_cache():\n"
        "    time.sleep(0.01)\n"
        "    return build_detector()\n"
        "\n"
        "\n"
        "async def handle(query):\n"
        "    detector = build_detector()\n"
        "    return detector.detect(query)\n"
        "\n"
        "\n"
        "def lazy_config():\n"
        "    from repro.utils.iteration import stable_sort\n"
        "    return stable_sort([])\n",
    ),
]


class TestModuleGraph:
    def test_edges_resolve_to_project_files(self):
        graphs = fresh_graphs(PROJECT)
        edges = {
            (edge.source, edge.target, edge.deferred)
            for edge in graphs.modules.edges
        }
        assert ("core/model.py", "utils/iteration.py", False) in edges
        assert ("serving/service.py", "core/model.py", False) in edges
        # `import time` resolves to nothing in-project: no edge.
        assert not any("time" in target for _, target, _ in edges)

    def test_function_local_import_is_deferred(self):
        graphs = fresh_graphs(PROJECT)
        deferred = [
            edge
            for edge in graphs.modules.imports_of("serving/service.py")
            if edge.target == "utils/iteration.py"
        ]
        assert len(deferred) == 1
        assert deferred[0].deferred is True

    def test_type_checking_import_is_deferred(self):
        sources = [
            SourceFile("core/a.py", "class A:\n    pass\n"),
            SourceFile(
                "core/b.py",
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    from repro.core.a import A\n",
            ),
        ]
        (edge,) = fresh_graphs(sources).modules.imports_of("core/b.py")
        assert edge.deferred is True

    def test_load_time_cycle_detected(self):
        sources = [
            SourceFile("core/a.py", "from repro.core import b\n"),
            SourceFile("core/b.py", "from repro.core import a\n"),
        ]
        cycles = fresh_graphs(sources).modules.load_time_cycles()
        assert cycles == [("core/a.py", "core/b.py")]

    def test_deferred_import_breaks_the_cycle(self):
        sources = [
            SourceFile("core/a.py", "from repro.core import b\n"),
            SourceFile(
                "core/b.py",
                "def late():\n    from repro.core import a\n    return a\n",
            ),
        ]
        assert fresh_graphs(sources).modules.load_time_cycles() == []

    def test_relative_import_resolves(self):
        sources = [
            SourceFile("core/a.py", "X = 1\n"),
            SourceFile("core/b.py", "from .a import X\n"),
        ]
        (edge,) = fresh_graphs(sources).modules.imports_of("core/b.py")
        assert edge.target == "core/a.py"


class TestNames:
    def test_subsystem_of(self):
        assert subsystem_of("serving/router.py") == "serving"
        assert subsystem_of("analysis/rules/rep001_determinism.py") == "analysis"
        assert subsystem_of("errors.py") == "errors"
        assert subsystem_of("__init__.py") == "root"
        assert subsystem_of("benchmarks/bench_x.py") == "benchmarks"

    def test_module_name(self):
        assert module_name("serving/router.py") == "repro.serving.router"
        assert module_name("__init__.py") == "repro"
        assert module_name("serving/__init__.py") == "repro.serving"
        assert module_name("benchmarks/bench_x.py") == "benchmarks.bench_x"


class TestCallGraph:
    def test_cross_module_call_resolves(self):
        graphs = fresh_graphs(PROJECT)
        calls = graphs.calls.calls_of("serving/service.py:warm_up_cache")
        assert any(
            site.callee == "core/model.py:build_detector" for site in calls
        )

    def test_instantiation_resolves_to_init(self):
        graphs = fresh_graphs(PROJECT)
        calls = graphs.calls.calls_of("core/model.py:build_detector")
        assert [site.callee for site in calls] == [
            "core/model.py:Detector.__init__"
        ]

    def test_blocking_external_recorded(self):
        graphs = fresh_graphs(PROJECT)
        externals = graphs.calls.externals_of("serving/service.py:warm_up_cache")
        assert any(external.name == "time.sleep" for external in externals)

    def test_async_flag(self):
        graphs = fresh_graphs(PROJECT)
        assert graphs.calls.functions["serving/service.py:handle"].is_async
        assert not graphs.calls.functions[
            "serving/service.py:warm_up_cache"
        ].is_async

    def test_self_method_call_resolves(self):
        sources = [
            SourceFile(
                "core/c.py",
                "class Pipeline:\n"
                "    def run(self):\n"
                "        return self.finish()\n"
                "\n"
                "    def finish(self):\n"
                "        return 1\n",
            )
        ]
        calls = fresh_graphs(sources).calls.calls_of("core/c.py:Pipeline.run")
        assert [site.callee for site in calls] == ["core/c.py:Pipeline.finish"]

    def test_base_class_method_resolves(self):
        sources = [
            SourceFile(
                "core/base.py",
                "class Base:\n    def shared_step(self):\n        return 0\n",
            ),
            SourceFile(
                "core/derived.py",
                "from repro.core.base import Base\n"
                "\n"
                "\n"
                "class Derived(Base):\n"
                "    def run(self):\n"
                "        return self.shared_step()\n",
            ),
        ]
        calls = fresh_graphs(sources).calls.calls_of("core/derived.py:Derived.run")
        assert [site.callee for site in calls] == ["core/base.py:Base.shared_step"]

    def test_init_reexport_chases(self):
        sources = [
            SourceFile("serving/__init__.py", "from repro.serving.impl import go\n"),
            SourceFile("serving/impl.py", "def go():\n    return 1\n"),
            SourceFile(
                "cli.py",
                "from repro import serving\n"
                "\n"
                "\n"
                "def main():\n"
                "    return serving.go()\n",
            ),
        ]
        calls = fresh_graphs(sources).calls.calls_of("cli.py:main")
        assert [site.callee for site in calls] == ["serving/impl.py:go"]

    def test_unique_underscored_name_fallback(self):
        sources = [
            SourceFile(
                "serving/a.py",
                "def use(service):\n    return service.swap_snapshot()\n",
            ),
            SourceFile(
                "serving/b.py",
                "class Service:\n    def swap_snapshot(self):\n        return 1\n",
            ),
        ]
        calls = fresh_graphs(sources).calls.calls_of("serving/a.py:use")
        assert [site.callee for site in calls] == [
            "serving/b.py:Service.swap_snapshot"
        ]


class TestDeterminism:
    def test_cache_returns_same_object_for_same_content(self):
        _CACHE.clear()
        first = build_graphs(PROJECT)
        second = build_graphs(list(reversed(PROJECT)))
        assert first is second

    @given(st.permutations(PROJECT))
    def test_order_independent(self, shuffled):
        expected = structure(fresh_graphs(PROJECT))
        assert structure(fresh_graphs(shuffled)) == expected
