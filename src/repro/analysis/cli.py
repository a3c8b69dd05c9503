"""The ``repro lint`` command.

Thin argparse-to-engine glue with stable exit codes — the CI contract
(the flags themselves are declared in :mod:`repro.cli`, so building the
main parser imports nothing from this package):

- **0** — clean (no active findings, no stale baseline entries), and
  always after a successful ``--write-baseline``;
- **1** — active findings (or stale baseline entries: the baseline only
  ratchets down, so a fixed finding must be removed from it);
- **2** — usage error (unknown rule id, bad path, unreadable baseline),
  via :class:`~repro.errors.AnalysisError` and the top-level handler in
  :mod:`repro.cli`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.engine import discover_project, find_project_root, run_lint
from repro.analysis.graph import build_graphs, graphs_to_dict, render_graph_dot
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

#: Baseline location relative to the project root.
DEFAULT_BASELINE = "lint-baseline.json"


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
    baseline_path = (
        Path(args.baseline) if args.baseline else project_root / DEFAULT_BASELINE
    )
    baseline = Baseline.load(baseline_path)
    rule_filter = _parse_rule_filter(args.rule)
    sources, test_sources, src_corpus = discover_project(
        project_root, list(args.paths)
    )

    if args.graph:
        graphs = build_graphs(src_corpus)
        if args.graph == "json":
            report = json.dumps(graphs_to_dict(graphs), indent=2, sort_keys=True)
        else:
            report = render_graph_dot(graphs)
        print(report)
        if args.output:
            Path(args.output).write_text(report + "\n", encoding="utf-8")
            print(f"graph written to {args.output}", file=sys.stderr)
        return 0
    result = run_lint(
        sources,
        test_sources=test_sources,
        baseline=baseline,
        rule_filter=rule_filter,
        src_corpus=src_corpus,
    )

    if args.write_baseline:
        updated = Baseline()
        for fingerprint, context in result.live_fingerprints.items():
            updated.add(fingerprint, context["rule"], context["path"])
        updated.save(baseline_path)
        print(
            f"wrote {baseline_path}: {len(updated)} grandfathered finding(s) "
            f"({len(result.stale_baseline)} stale entr"
            f"{'y' if len(result.stale_baseline) == 1 else 'ies'} dropped)"
        )
        return 0

    report = (
        render_json(result) if args.format == "json" else render_text(result)
    )
    print(report)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
        print(f"report written to {args.output}", file=sys.stderr)
    return 0 if result.clean else 1
