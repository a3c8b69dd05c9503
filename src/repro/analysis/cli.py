"""The ``repro lint`` command.

Thin argparse-to-engine glue with stable exit codes — the CI contract
(the flags themselves are declared in :mod:`repro.cli`, so building the
main parser imports nothing from this package):

- **0** — clean (no active findings);
- **1** — active findings;
- **2** — usage error (unknown rule id, bad path, unparseable source),
  via :class:`~repro.errors.AnalysisError` and the top-level handler in
  :mod:`repro.cli`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.engine import discover_project, find_project_root, run_lint
from repro.analysis.registry import all_rules
from repro.analysis.reporters import render_json, render_text


def _parse_rule_filter(values: list[str] | None) -> set[str] | None:
    """``--rule REP001 --rule REP002,REP007`` -> {REP001, REP002, REP007}."""
    if not values:
        return None
    return {
        rule_id.strip()
        for value in values
        for rule_id in value.split(",")
        if rule_id.strip()
    } or None


def cmd_lint(args: argparse.Namespace) -> int:
    """Handler behind ``repro lint`` (exit codes in the module docstring)."""
    if args.list_rules:
        for rule in all_rules():
            scope = ", ".join(rule.scope) if rule.scope else "everywhere"
            print(f"{rule.rule_id}  [{scope}]  {rule.summary}")
        return 0

    project_root = (
        Path(args.root).resolve() if args.root else find_project_root()
    )
    rule_filter = _parse_rule_filter(args.rule)
    sources, test_sources, src_corpus = discover_project(
        project_root, list(args.paths)
    )
    result = run_lint(
        sources,
        test_sources=test_sources,
        rule_filter=rule_filter,
        src_corpus=src_corpus,
    )
    report = (
        render_json(result) if args.format == "json" else render_text(result)
    )
    print(report)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
        print(f"report written to {args.output}", file=sys.stderr)
    return 0 if result.clean else 1
