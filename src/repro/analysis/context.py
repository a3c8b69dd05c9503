"""What a rule sees: one parsed file, or the whole project.

Rules never touch the filesystem. The engine parses every source file
once into a :class:`FileContext` (source text, split lines, AST) and
hands per-file rules one context at a time; cross-file rules (REP005)
receive the whole :class:`ProjectContext`, which also carries the test
corpus so coverage checks don't re-read the tree per rule.

Paths are always POSIX-style and relative to the ``repro`` package root
(``runtime/snapshot.py``, not ``/abs/src/repro/runtime/snapshot.py``) so rule
scopes, baselines, and reports are machine-independent.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.analysis.findings import Finding
from repro.analysis.suppressions import Suppression, parse_suppressions

if TYPE_CHECKING:  # deferred at runtime; see ProjectContext.graphs
    from repro.analysis.graph import ProjectGraphs


@dataclass(frozen=True)
class SourceFile:
    """One source file as (package-relative path, text) — the engine's
    input unit, trivially fakeable in tests."""

    relpath: str
    text: str


class FileContext:
    """A parsed source file plus its per-line suppressions."""

    def __init__(self, source: SourceFile) -> None:
        self.relpath = source.relpath
        self.text = source.text
        self.lines = source.text.splitlines()
        self.tree = ast.parse(source.text, filename=source.relpath)
        self.suppressions: dict[int, Suppression]
        self.suppression_findings: list[Finding]
        self.suppressions, self.suppression_findings = parse_suppressions(
            source.relpath, source.text
        )

    def line_text(self, line: int) -> str:
        """The 1-based source line (empty string when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    @cached_property
    def imports(self) -> dict[str, str]:
        """Local name → dotted module/symbol path, from this file's imports.

        ``import numpy as np`` maps ``np -> numpy``; ``from time import
        sleep`` maps ``sleep -> time.sleep``. Rules use this to resolve
        call targets without guessing at aliases.
        """
        table: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    table[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        return table

    def resolve_call(self, func: ast.expr) -> str | None:
        """Dotted name of a call target, through the import table.

        ``sleep(1)`` after ``from time import sleep`` resolves to
        ``time.sleep``; ``np.random.shuffle`` to ``numpy.random.shuffle``.
        Returns ``None`` for calls on arbitrary expressions.
        """
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        parts[0] = self.imports.get(parts[0], parts[0])
        return ".".join(parts)


@dataclass
class ProjectContext:
    """Everything the engine linted in one run.

    ``files`` are the lintable package sources; ``test_corpus`` is the
    concatenable text of files under ``tests/`` (paths + text), used by
    coverage rules; ``src_corpus`` maps every package file to its text
    (a superset of ``files`` when ``--rule``/path filters narrowed the
    run) so cross-file twin lookups see the whole tree.
    """

    files: list[FileContext]
    test_corpus: list[SourceFile] = field(default_factory=list)
    src_corpus: list[SourceFile] = field(default_factory=list)

    def test_text(self) -> str:
        """All test sources as one searchable blob."""
        return "\n".join(source.text for source in self.test_corpus)

    def src_text_excluding(self, relpath: str) -> str:
        """All package sources except ``relpath``, as one blob."""
        corpus = self.src_corpus or [
            SourceFile(ctx.relpath, ctx.text) for ctx in self.files
        ]
        return "\n".join(
            source.text for source in corpus if source.relpath != relpath
        )

    @property
    def graphs(self) -> "ProjectGraphs":
        """The whole-program import/call graphs over ``src_corpus``
        (falling back to ``files`` for in-memory fixture projects).

        Construction is content-hash cached in
        :func:`repro.analysis.graph.build_graphs`, so the four graph
        rules in one run share a single build.
        """
        # Deferred to break the load-time cycle (graph imports
        # SourceFile from this module); REP007 sanctions exactly this.
        from repro.analysis.graph import build_graphs

        corpus = self.src_corpus or [
            SourceFile(ctx.relpath, ctx.text) for ctx in self.files
        ]
        return build_graphs(corpus)
