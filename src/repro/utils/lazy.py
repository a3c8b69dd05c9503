"""Lazy package re-exports (PEP 562).

A package ``__init__`` that imports its whole subtree makes every
process pay for every subsystem: ``repro route`` would load training,
evaluation and NumPy just to forward JSON frames. Instead each package
names its public symbols and the submodule that defines them; a module
``__getattr__`` imports that submodule on first access and caches the
value in the package namespace, so later lookups are plain attribute
reads.

The same imports are spelled out under ``if TYPE_CHECKING:`` in each
``__init__`` so type checkers and ``repro lint``'s import graph still
see every re-export edge. ``tests/test_import_sets.py`` checks that the
two spellings agree and that every ``__all__`` name resolves.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping
from typing import Any


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Return the ``(__getattr__, __dir__)`` pair for ``package``.

    ``exports`` maps each defining submodule to the names the package
    re-exports from it. Call from the package ``__init__`` as::

        if not TYPE_CHECKING:
            __getattr__, __dir__ = lazy_exports(__name__, {...})

    The guard keeps the module ``__getattr__`` out of type checkers'
    sight: they resolve the re-exports through the ``TYPE_CHECKING``
    imports and still reject a misspelt name instead of typing it
    ``Any``.
    """
    owner = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *owner})

    return __getattr__, __dir__
