"""``repro lint`` end to end: exit codes 0/1/2, --rule, --format json,
--output, --list-rules — on a throwaway project."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis import rule_ids
from repro.cli import main

README = Path(__file__).resolve().parents[2] / "README.md"

CLEAN_MODULE = "def detect(query):\n    return sorted(set(query.split()))\n"
DIRTY_MODULE = (
    "import random\n"
    "\n"
    "\n"
    "def jumble(items):\n"
    "    random.shuffle(items)\n"
    "    return items\n"
)


class ProjectDir:
    """A minimal on-disk project the CLI's discovery accepts."""

    def __init__(self, root):
        self.root = root
        (root / "pyproject.toml").write_text("[project]\nname = 'x'\n")
        self.package = root / "src" / "repro"
        self.package.mkdir(parents=True)
        (self.package / "__init__.py").write_text("")

    def add(self, relpath, text):
        path = self.package / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path

    def __truediv__(self, other):
        return self.root / other

    def __str__(self):
        return str(self.root)


@pytest.fixture
def project(tmp_path):
    return ProjectDir(tmp_path)


def lint(project, *extra):
    return main(["lint", "--root", str(project), *extra])


class TestExitCodes:
    def test_clean_project_exits_0(self, project, capsys):
        project.add("core/ok.py", CLEAN_MODULE)
        assert lint(project) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_1(self, project, capsys):
        project.add("training/shuffle.py", DIRTY_MODULE)
        assert lint(project) == 1
        out = capsys.readouterr().out
        assert "REP001" in out
        assert "training/shuffle.py:5" in out

    def test_unknown_rule_exits_2(self, project, capsys):
        project.add("core/ok.py", CLEAN_MODULE)
        assert lint(project, "--rule", "REP999") == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_2(self, project, capsys):
        project.add("core/ok.py", CLEAN_MODULE)
        assert lint(project, "no/such/file.py") == 2

    def test_unparseable_source_exits_2(self, project, capsys):
        project.add("core/broken.py", "def f(:\n")
        assert lint(project) == 2
        assert "cannot parse" in capsys.readouterr().err


class TestOptions:
    def test_rule_filter(self, project, capsys):
        project.add("training/shuffle.py", DIRTY_MODULE)
        assert lint(project, "--rule", "REP002") == 0
        assert lint(project, "--rule", "REP001", "--rule", "REP002") == 1

    def test_rule_filter_comma_separated(self, project, capsys):
        project.add("training/shuffle.py", DIRTY_MODULE)
        assert lint(project, "--rule", "REP002,REP006") == 0
        assert lint(project, "--rule", "REP001,REP002") == 1
        # Mixed styles compose; stray whitespace and commas are tolerated.
        assert lint(project, "--rule", "REP002, REP006,", "--rule", "REP001") == 1
        assert lint(project, "--rule", "REP001,REP999") == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_json_format_and_output_file(self, project, capsys):
        project.add("training/shuffle.py", DIRTY_MODULE)
        report_path = project / "report.json"
        assert (
            lint(project, "--format", "json", "--output", str(report_path)) == 1
        )
        stdout_payload = json.loads(capsys.readouterr().out)
        file_payload = json.loads(report_path.read_text())
        assert stdout_payload == file_payload
        assert file_payload["clean"] is False
        assert file_payload["counts"]["active"] == 1

    def test_explicit_paths_narrow_the_target(self, project, capsys):
        project.add("training/shuffle.py", DIRTY_MODULE)
        project.add("core/ok.py", CLEAN_MODULE)
        assert lint(project, "core") == 0
        assert lint(project, "training") == 1

    def test_list_rules(self, project, capsys):
        assert lint(project, "--list-rules") == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == rule_ids()
        # README's rule table documents exactly the registered rules.
        documented = re.findall(
            r"^\| (REP\d{3}) \|", README.read_text(encoding="utf-8"), re.M
        )
        assert documented == rule_ids()
