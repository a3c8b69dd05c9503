"""Each process imports only the code it runs.

Package ``__init__``s resolve their exports on first use
(:mod:`repro.utils.lazy`) and the CLI imports per command, so ``repro
serve``, ``repro route`` and replica processes skip training,
evaluation and log generation, and the router skips NumPy. Every case
imports in a fresh interpreter: this suite's own process has long since
loaded everything.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parents[1]

#: Offline-only code no serving-path import may load.
OFFLINE = (
    "repro.training",
    "repro.eval",
    "repro.core.pipeline",
    "repro.querylog.generator",
    "repro.taxonomy.builder",
    "repro.taxonomy.corpus",
    "repro.taxonomy.hearst",
    "repro.taxonomy.seed_data",
)

#: Imports that must not pull in NumPy (the router forwards JSON frames).
NUMPY_FREE = ("repro.cli", "repro.serving.router")


def _packages(marker: str) -> list[str]:
    """Dotted names of the packages whose ``__init__`` contains ``marker``."""
    return sorted(
        ".".join(init.parent.relative_to(SRC).parts)
        for init in (SRC / "repro").rglob("__init__.py")
        if marker in init.read_text()
    )


#: Every package with a public ``__all__``.
PACKAGES = _packages("__all__ = ")

#: Packages whose ``__init__`` re-exports lazily.
LAZY = _packages("lazy_exports(")


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter on this source tree; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _loaded_by(module: str) -> set[str]:
    return set(
        json.loads(
            _fresh(f"import json, sys\nimport {module}\nprint(json.dumps(sorted(sys.modules)))")
        )
    )


@pytest.mark.parametrize(
    "module", ["repro.cli", "repro.serving", "repro.runtime.compiled", "repro.serving.router"]
)
def test_serving_path_loads_no_offline_code(module):
    loaded = _loaded_by(module)
    offline = sorted(
        name
        for name in loaded
        if any(name == prefix or name.startswith(prefix + ".") for prefix in OFFLINE)
    )
    assert offline == []
    if module in NUMPY_FREE:
        assert "numpy" not in loaded


def _under(loaded: set[str], package: str) -> list[str]:
    return sorted(
        name for name in loaded if name == package or name.startswith(package + ".")
    )


def test_router_loads_no_detector_code():
    """The router forwards payload dicts; it never builds a Detection."""
    assert _under(_loaded_by("repro.serving.router"), "repro.core") == []


def test_scalar_detection_loads_no_batch_engine(model, tmp_path):
    """A process that loads a snapshot and detects one query at a time
    (``repro serve``, a replica, ``repro detect``) never imports the
    batch engine; a batch of ``MIN_VECTORIZED_BATCH`` queries does."""
    path = tmp_path / "model.hdms"
    model.compile().save_snapshot(path)
    engine = "repro.runtime.vectorized"
    loaded = json.loads(
        _fresh(
            "import json, sys\n"
            "from repro.runtime import load_snapshot\n"
            "from repro.runtime.compiled import MIN_VECTORIZED_BATCH\n"
            f"detector = load_snapshot({str(path)!r})\n"
            "detector.detect('cheap hotels in rome')\n"
            f"scalar = {engine!r} in sys.modules\n"
            "detector.detect_batch(['cheap hotels in rome'] * MIN_VECTORIZED_BATCH)\n"
            f"print(json.dumps([scalar, {engine!r} in sys.modules]))"
        )
    )
    assert loaded == [False, True]


def test_building_the_cli_parser_loads_no_linter():
    """Every serve, route and replica process builds the parser; only
    ``repro lint`` itself imports the analysis package."""
    loaded = set(
        json.loads(
            _fresh(
                "import json, sys\nfrom repro.cli import _build_parser\n"
                "_build_parser()\nprint(json.dumps(sorted(sys.modules)))"
            )
        )
    )
    assert _under(loaded, "repro.analysis") == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    """Laziness must not hide a broken re-export: ``import *`` touches
    every ``__all__`` name."""
    names = json.loads(
        _fresh(
            f"import json\nfrom {package} import *\n"
            f"import {package} as package\n"
            "print(json.dumps([name for name in package.__all__ "
            "if name not in globals()]))"
        )
    )
    assert names == []


def _lazy_table(tree: ast.Module) -> dict[str, set[str]]:
    """The ``{module: names}`` literal handed to ``lazy_exports``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
            table = ast.literal_eval(node.args[1])
            return {module: set(names) for module, names in table.items()}
    raise AssertionError("no lazy_exports(...) call")


def _type_checking_table(tree: ast.Module) -> dict[str, set[str]]:
    """The ``from X import ...`` statements under ``if TYPE_CHECKING:``."""
    table: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            for statement in node.body:
                assert isinstance(statement, ast.ImportFrom)
                table.setdefault(statement.module, set()).update(
                    alias.name for alias in statement.names
                )
    return table


@pytest.mark.parametrize("package", LAZY)
def test_type_checkers_see_every_lazy_export(package):
    """The ``TYPE_CHECKING`` imports (what mypy and ``repro lint``'s
    import graph read) name exactly what ``__getattr__`` resolves."""
    init = SRC.joinpath(*package.split("."), "__init__.py")
    tree = ast.parse(init.read_text())
    assert _type_checking_table(tree) == _lazy_table(tree)
