"""The lint engine: parse once, dispatch rules, filter, report.

:func:`run_lint` is the whole pipeline in one call — parse sources into
a :class:`~repro.analysis.context.ProjectContext`, run every registered
rule (optionally filtered to a subset of ids), then apply per-line
``noqa`` suppressions. The result separates *active* findings (what
fails the build) from *suppressed* ones (reported for transparency,
exit-code-neutral).

File discovery (:func:`discover_project`) is itself bound by REP001's
discipline: directory walks are sorted, so reports are byte-stable
across filesystems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.context import FileContext, ProjectContext, SourceFile
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, all_rules
from repro.errors import AnalysisError

#: Rules that run on benchmark scripts. Benchmarks are measurement
#: harnesses, not package code: determinism (REP001), exception
#: discipline (REP006), and layering (REP007) apply; async hygiene,
#: parity, and dead-API rules are package-surface concerns and would
#: only generate noise there. REP000 (malformed noqa) always applies.
BENCHMARK_RULES = frozenset({"REP000", "REP001", "REP006", "REP007"})


def _benchmark_scoped(finding: Finding) -> bool:
    """Drop findings on ``benchmarks/`` files from out-of-scope rules."""
    return finding.path.startswith("benchmarks/") and (
        finding.rule not in BENCHMARK_RULES
    )


@dataclass
class LintResult:
    """Everything one lint run produced.

    ``active`` findings gate the exit code; ``suppressed`` ones exist so
    reporters can show *why* the run is clean, not just that it is.
    """

    active: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing gates the exit code."""
        return not self.active


def lint_project(
    project: ProjectContext, rule_filter: set[str] | None = None
) -> LintResult:
    """Run the registered rules over a prepared project context."""
    rules = _selected_rules(rule_filter)
    result = LintResult(
        files_checked=len(project.files),
        rules_run=[rule.rule_id for rule in rules],
    )
    raw: list[Finding] = []
    for ctx in project.files:
        # REP000 (malformed suppressions) is engine-level, not a rule,
        # and cannot itself be suppressed or filtered away.
        raw.extend(ctx.suppression_findings)
    for rule in rules:
        if rule.project_check is not None:
            raw.extend(
                finding
                for finding in rule.project_check(project)
                if not _benchmark_scoped(finding)
            )
        if rule.file_check is not None:
            for ctx in project.files:
                if ctx.relpath.startswith("benchmarks/") and (
                    rule.rule_id not in BENCHMARK_RULES
                ):
                    continue
                if rule.applies_to(ctx.relpath):
                    raw.extend(rule.file_check(ctx))

    contexts = {ctx.relpath: ctx for ctx in project.files}
    for finding in sorted(raw):
        ctx = contexts.get(finding.path)
        suppression = ctx.suppressions.get(finding.line) if ctx else None
        if (
            suppression is not None
            and finding.rule != "REP000"
            and suppression.covers(finding.rule)
        ):
            result.suppressed.append(finding)
        else:
            result.active.append(finding)
    return result


def run_lint(
    sources: list[SourceFile],
    test_sources: list[SourceFile] | None = None,
    rule_filter: set[str] | None = None,
    src_corpus: list[SourceFile] | None = None,
) -> LintResult:
    """Lint in-memory sources (the tests' entry point; the CLI builds
    the same inputs from disk via :func:`discover_project`)."""
    files = []
    for source in sources:
        try:
            files.append(FileContext(source))
        except SyntaxError as exc:
            raise AnalysisError(f"cannot parse {source.relpath}: {exc}") from exc
    project = ProjectContext(
        files=files,
        test_corpus=list(test_sources or []),
        src_corpus=list(src_corpus or []),
    )
    return lint_project(project, rule_filter=rule_filter)


def _selected_rules(rule_filter: set[str] | None) -> list[Rule]:
    rules = all_rules()
    if rule_filter is None:
        return rules
    known = {rule.rule_id for rule in rules}
    unknown = sorted(rule_filter - known)
    if unknown:
        raise AnalysisError(
            f"unknown rule id(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )
    return [rule for rule in rules if rule.rule_id in rule_filter]


# ----------------------------------------------------------------------
# filesystem discovery
# ----------------------------------------------------------------------
def find_project_root(start: Path | None = None) -> Path:
    """Walk up from ``start`` (default: cwd) to the ``pyproject.toml``."""
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    raise AnalysisError(
        f"no pyproject.toml at or above {current}; pass explicit paths"
    )


def _read_tree(root: Path, base: Path) -> list[SourceFile]:
    """Read every ``*.py`` under ``root`` (sorted: REP001 discipline),
    with paths relative to ``base``."""
    return [
        SourceFile(path.relative_to(base).as_posix(), path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.py"))
    ]


def discover_project(
    project_root: Path, paths: list[str] | None = None
) -> tuple[list[SourceFile], list[SourceFile], list[SourceFile]]:
    """Load (lint targets, test corpus, full src corpus) from disk.

    With no ``paths``, the lint target is the whole ``src/repro``
    package plus ``benchmarks/`` (linted under a ``benchmarks/`` path
    prefix with the scope-limited :data:`BENCHMARK_RULES` set). Explicit
    ``paths`` (files or directories, given relative to the project root
    or absolute) narrow the target; the twin/test corpora always cover
    the full tree so cross-file rules keep their context.
    """
    package_root = project_root / "src" / "repro"
    if not package_root.is_dir():
        raise AnalysisError(f"no src/repro package under {project_root}")
    src_corpus = _read_tree(package_root, package_root)
    bench_root = project_root / "benchmarks"
    if bench_root.is_dir():
        # Prefixed so rule scopes, reports, and the import graph can
        # tell measurement harnesses from package code.
        src_corpus.extend(
            SourceFile(f"benchmarks/{source.relpath}", source.text)
            for source in _read_tree(bench_root, bench_root)
        )
    tests_root = project_root / "tests"
    test_corpus = _read_tree(tests_root, tests_root) if tests_root.is_dir() else []

    if not paths:
        return src_corpus, test_corpus, src_corpus

    roots = (package_root.resolve(), project_root.resolve())
    selected: dict[str, SourceFile] = {}
    by_relpath = {source.relpath: source for source in src_corpus}
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = project_root / path
            if not path.exists() and (package_root / raw).exists():
                # `repro lint serving` means src/repro/serving.
                path = package_root / raw
        path = path.resolve()
        if path.is_dir():
            chosen = [
                source
                for source in src_corpus
                if _on_disk(source.relpath, roots).is_relative_to(path)
            ]
            if not chosen:
                raise AnalysisError(f"no lintable files under {raw}")
            for source in chosen:
                selected[source.relpath] = source
        elif path.is_file():
            relpath = _relpath_of(path, roots)
            if relpath is None:
                raise AnalysisError(
                    f"{raw} is outside the src/repro package and benchmarks/"
                )
            selected[relpath] = by_relpath.get(
                relpath, SourceFile(relpath, path.read_text(encoding="utf-8"))
            )
        else:
            raise AnalysisError(f"no such file or directory: {raw}")
    return list(selected.values()), test_corpus, src_corpus


def _on_disk(relpath: str, roots: tuple[Path, Path]) -> Path:
    """Map a lint relpath back to its on-disk location (benchmark
    sources live under the project root, package sources under
    ``src/repro``)."""
    package_root, project_root = roots
    base = project_root if relpath.startswith("benchmarks/") else package_root
    return (base / relpath).resolve()


def _relpath_of(path: Path, roots: tuple[Path, Path]) -> str | None:
    """Inverse of :func:`_on_disk` for explicit file arguments."""
    package_root, project_root = roots
    try:
        return path.relative_to(package_root).as_posix()
    except ValueError:
        pass
    try:
        relpath = path.relative_to(project_root).as_posix()
    except ValueError:
        return None
    return relpath if relpath.startswith("benchmarks/") else None
