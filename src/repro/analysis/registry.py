"""The rule registry: declare once, dispatch everywhere.

A rule is a pure function from a context to findings, registered with
:func:`file_rule` (sees one :class:`~repro.analysis.context.FileContext`
at a time) or :func:`project_rule` (sees the whole
:class:`~repro.analysis.context.ProjectContext`; for cross-file checks
like parity coverage). ``scope`` restricts a file rule to package
subtrees — paths are package-relative, so ``("runtime/",)`` matches
``runtime/snapshot.py``.

Importing :mod:`repro.analysis.rules` populates the registry; the
engine, CLI, and docs all read it through :func:`all_rules` so there is
exactly one source of truth for what ``repro lint`` enforces.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.analysis.context import FileContext, ProjectContext
from repro.analysis.findings import Finding

FileCheck = Callable[[FileContext], Iterable[Finding]]
ProjectCheck = Callable[[ProjectContext], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered rule: id, one-line summary, checker, file scope."""

    rule_id: str
    summary: str
    scope: tuple[str, ...]  # package-relative path prefixes; () = everywhere
    file_check: FileCheck | None = None
    project_check: ProjectCheck | None = None

    def applies_to(self, relpath: str) -> bool:
        """True when ``relpath`` falls inside this rule's scope."""
        return not self.scope or relpath.startswith(self.scope)


_REGISTRY: dict[str, Rule] = {}


def _register(rule: Rule) -> None:
    if rule.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id}")
    _REGISTRY[rule.rule_id] = rule


def file_rule(
    rule_id: str, summary: str, scope: tuple[str, ...] = ()
) -> Callable[[FileCheck], FileCheck]:
    """Register a per-file rule (decorator)."""

    def decorate(check: FileCheck) -> FileCheck:
        _register(Rule(rule_id, summary, scope, file_check=check))
        return check

    return decorate


def project_rule(
    rule_id: str, summary: str
) -> Callable[[ProjectCheck], ProjectCheck]:
    """Register a whole-project rule (decorator)."""

    def decorate(check: ProjectCheck) -> ProjectCheck:
        _register(Rule(rule_id, summary, (), project_check=check))
        return check

    return decorate


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by id (stable report order)."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def rule_ids() -> list[str]:
    """Sorted ids of every registered rule."""
    return [rule.rule_id for rule in all_rules()]
