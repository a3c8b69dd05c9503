"""Render a :class:`~repro.analysis.engine.LintResult` as text or JSON.

The text reporter is for humans at a terminal; the JSON reporter is the
machine surface (CI uploads it as an artifact) with a stable schema::

    {
      "version": 2,
      "clean": false,
      "files_checked": 42,
      "rules_run": ["REP001", ...],
      "findings": [{"rule", "path", "line", "col", "message"}, ...],
      "suppressed": [...same shape...],
      "counts": {"active": 3, "suppressed": 5}
    }

Schema changes bump ``version``; ``tests/analysis/test_reporters.py``
pins the shape.
"""

from __future__ import annotations

import json

from repro.analysis.engine import LintResult

#: JSON report schema version.
REPORT_VERSION = 2


def render_json(result: LintResult) -> str:
    """The machine-readable report (one JSON document)."""
    payload = {
        "version": REPORT_VERSION,
        "clean": result.clean,
        "files_checked": result.files_checked,
        "rules_run": result.rules_run,
        "findings": [finding.to_dict() for finding in result.active],
        "suppressed": [finding.to_dict() for finding in result.suppressed],
        "counts": {
            "active": len(result.active),
            "suppressed": len(result.suppressed),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_text(result: LintResult) -> str:
    """The human-readable report."""
    lines = [finding.render() for finding in result.active]
    summary = (
        f"{result.files_checked} files, "
        f"{len(result.rules_run)} rules: "
        f"{len(result.active)} finding(s), "
        f"{len(result.suppressed)} suppressed"
    )
    if lines:
        lines.append("")
    lines.append(summary)
    return "\n".join(lines)
