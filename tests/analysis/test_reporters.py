"""Pin the reporter surfaces: the JSON schema is a CI contract."""

from __future__ import annotations

import json

from repro.analysis import SourceFile, run_lint
from repro.analysis.reporters import REPORT_VERSION, render_json, render_text

DIRTY = SourceFile(
    "serving/slow.py",
    "import time\n\n\nasync def handle(request):\n    time.sleep(1)\n",
)
CLEAN = SourceFile("core/ok.py", "def f():\n    return 1\n")


class TestJsonReporter:
    def test_schema_keys(self):
        payload = json.loads(render_json(run_lint([DIRTY])))
        assert set(payload) == {
            "version",
            "clean",
            "files_checked",
            "rules_run",
            "findings",
            "suppressed",
            "counts",
        }
        assert payload["version"] == REPORT_VERSION == 2
        assert set(payload["counts"]) == {"active", "suppressed"}

    def test_finding_shape(self):
        payload = json.loads(render_json(run_lint([DIRTY])))
        assert payload["clean"] is False
        (finding,) = payload["findings"]
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert finding["rule"] == "REP002"
        assert finding["path"] == "serving/slow.py"
        assert finding["line"] == 5
        assert payload["counts"]["active"] == 1

    def test_clean_run(self):
        payload = json.loads(render_json(run_lint([CLEAN])))
        assert payload["clean"] is True
        assert payload["findings"] == []
        assert payload["files_checked"] == 1
        assert payload["rules_run"] == [
            "REP001",
            "REP002",
            "REP005",
            "REP006",
            "REP007",
            "REP008",
            "REP009",
            "REP010",
        ]

    def test_output_is_deterministic(self):
        assert render_json(run_lint([DIRTY])) == render_json(run_lint([DIRTY]))


class TestTextReporter:
    def test_finding_line_format(self):
        report = render_text(run_lint([DIRTY]))
        assert "serving/slow.py:5:" in report
        assert "REP002" in report
        assert "1 finding(s)" in report

    def test_clean_summary(self):
        report = render_text(run_lint([CLEAN]))
        assert report.endswith(
            "1 files, 8 rules: 0 finding(s), 0 suppressed"
        )
