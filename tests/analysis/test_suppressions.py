"""noqa parsing: trailing and standalone forms, and the REP000 guard
rail that keeps the escape hatch honest."""

from __future__ import annotations

import textwrap

from repro.analysis.suppressions import parse_suppressions


def parse(code):
    return parse_suppressions("x.py", textwrap.dedent(code).lstrip("\n"))


class TestTrailingNoqa:
    def test_single_rule_with_justification(self):
        suppressions, findings = parse(
            """
            import random

            def f(items):
                random.shuffle(items)  # repro: noqa[REP001] -- test fixture
            """
        )
        assert findings == []
        assert list(suppressions) == [4]
        assert suppressions[4].covers("REP001")
        assert not suppressions[4].covers("REP002")
        assert suppressions[4].justification == "test fixture"

    def test_multiple_rules_one_comment(self):
        suppressions, findings = parse(
            "call()  # repro: noqa[REP002, REP006] -- startup path\n"
        )
        assert findings == []
        assert suppressions[1].rules == frozenset({"REP002", "REP006"})

    def test_suppression_silences_finding(self, lint_one):
        result = lint_one(
            "training/fixture.py",
            "import random\n"
            "random.shuffle([])  # repro: noqa[REP001] -- deterministic fixture\n",
        )
        assert result.active == []
        assert [f.rule for f in result.suppressed] == ["REP001"]

    def test_suppression_for_other_rule_does_not_silence(self, lint_one, rule_ids_of):
        result = lint_one(
            "training/fixture.py",
            "import random\n"
            "random.shuffle([])  # repro: noqa[REP006] -- wrong rule\n",
        )
        assert rule_ids_of(result) == ["REP001"]


class TestStandaloneNoqa:
    def test_covers_next_source_line(self):
        suppressions, findings = parse(
            """
            # repro: noqa[REP006] -- fan-out boundary; the failure
            # is delivered to every waiter.
            outcome = fan_out()
            """
        )
        assert findings == []
        assert list(suppressions) == [3]
        assert suppressions[3].covers("REP006")

    def test_skips_blank_and_comment_lines(self):
        suppressions, _ = parse(
            """
            # repro: noqa[REP006] -- fan-out boundary

            # unrelated comment
            except_site = 1
            """
        )
        assert list(suppressions) == [4]

    def test_duplicate_targets_merge(self):
        suppressions, findings = parse(
            """
            # repro: noqa[REP002] -- reason one
            # repro: noqa[REP006] -- reason two
            call()
            """
        )
        assert findings == []
        assert suppressions[3].rules == frozenset({"REP002", "REP006"})
        assert "reason one" in suppressions[3].justification
        assert "reason two" in suppressions[3].justification


class TestRep000:
    def test_blanket_noqa_reported(self):
        _, findings = parse("call()  # repro: noqa\n")
        assert [f.rule for f in findings] == ["REP000"]
        assert "blanket" in findings[0].message

    def test_unknown_rule_id_reported(self):
        _, findings = parse("call()  # repro: noqa[REP9999] -- why\n")
        assert [f.rule for f in findings] == ["REP000"]
        assert "REP9999" in findings[0].message

    def test_unregistered_rule_id_reported(self):
        # A well-formed id no rule owns, like one a deleted rule left.
        _, findings = parse("call()  # repro: noqa[REP099] -- why\n")
        assert [f.rule for f in findings] == ["REP000"]
        assert "REP099" in findings[0].message

    def test_missing_justification_reported(self):
        _, findings = parse("call()  # repro: noqa[REP001]\n")
        assert [f.rule for f in findings] == ["REP000"]
        assert "justification" in findings[0].message

    def test_rep000_cannot_be_suppressed(self, lint_one, rule_ids_of):
        # Even a well-formed noqa on the same line does not cover REP000.
        result = lint_one(
            "core/x.py",
            "a = 1  # repro: noqa -- why\n",
        )
        assert rule_ids_of(result) == ["REP000"]

    def test_docstring_mentioning_noqa_is_not_a_comment(self):
        suppressions, findings = parse(
            '''
            def f():
                """Use `# repro: noqa[REP001]` to suppress."""
            '''
        )
        assert suppressions == {}
        assert findings == []
