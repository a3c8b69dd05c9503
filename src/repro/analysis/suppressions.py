"""Per-line suppressions: ``# repro: noqa[REPxxx] -- justification``.

A suppression silences the named rules on its line only, and the
justification after ``--`` is mandatory — the comment is the audit
trail explaining why the invariant does not apply. A suppression with a
missing/empty justification, or naming a rule id that is not
registered, is itself reported as **REP000**, so the escape hatch
cannot silently rot (a noqa left behind by a deleted rule fails the
lint).

Grammar (one comment per line, anywhere in the trailing comment)::

    risky_call()  # repro: noqa[REP001] -- seeded by the caller
    other_call()  # repro: noqa[REP002,REP006] -- startup, loop not live

A noqa on its *own* line (optionally inside a block of comment lines)
covers the next source line instead — for statements too long to carry
a trailing justification::

    # repro: noqa[REP006] -- fan-out boundary: the failure is
    # delivered to every waiter below.
    except Exception as exc:
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

from repro.analysis.findings import Finding

_NOQA = re.compile(
    r"#\s*repro:\s*noqa"  # marker
    r"(?:\[(?P<rules>[^\]]*)\])?"  # [REP001,REP002] (required in practice)
    r"(?:\s*--\s*(?P<why>.*?))?\s*$"  # -- justification (to end of line)
)


@dataclass(frozen=True)
class Suppression:
    """One parsed noqa comment on one line."""

    line: int
    rules: frozenset[str]
    justification: str

    def covers(self, rule: str) -> bool:
        """True when this suppression names ``rule``."""
        return rule in self.rules


def _comment_tokens(text: str) -> list[tuple[int, int, str]]:
    """Real ``#`` comments as (line, col, text) — docstrings that merely
    *mention* a noqa (like this package's own) are not comments."""
    comments = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.start[1], token.string))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        pass  # partial scan of a file the AST parser will reject anyway
    return comments


def parse_suppressions(
    relpath: str, text: str
) -> tuple[dict[int, Suppression], list[Finding]]:
    """Scan source ``text`` for noqa comments.

    Returns the valid suppressions keyed by 1-based line number, plus a
    REP000 finding for every malformed one (blanket ``noqa`` without
    rule ids, ids that are not registered, or a missing justification).
    """
    # Deferred: the registry imports this module (through context).
    from repro.analysis.registry import rule_ids

    known = set(rule_ids())
    lines = text.splitlines()
    suppressions: dict[int, Suppression] = {}
    findings: list[Finding] = []
    for number, comment_col, comment in _comment_tokens(text):
        match = _NOQA.search(comment)
        if match is None:
            continue
        col = comment_col + match.start() + 1
        target = number
        own_line = not lines[number - 1][:comment_col].strip()
        if own_line:
            # A standalone noqa covers the next source line (skipping the
            # rest of its comment block).
            target += 1
            while target <= len(lines) and (
                not lines[target - 1].strip()
                or lines[target - 1].lstrip().startswith("#")
            ):
                target += 1
        raw_rules = match.group("rules")
        why = (match.group("why") or "").strip()
        if raw_rules is None or not raw_rules.strip():
            findings.append(
                Finding(
                    relpath,
                    number,
                    col,
                    "REP000",
                    "blanket noqa is not allowed; name the rules, e.g. "
                    "`# repro: noqa[REP001] -- why`",
                )
            )
            continue
        rules = frozenset(part.strip() for part in raw_rules.split(","))
        bad = sorted(rules - known)
        if bad:
            findings.append(
                Finding(
                    relpath,
                    number,
                    col,
                    "REP000",
                    f"noqa names unknown rule id(s) {', '.join(bad)} "
                    f"(known: {', '.join(sorted(known))})",
                )
            )
            continue
        if not why:
            findings.append(
                Finding(
                    relpath,
                    number,
                    col,
                    "REP000",
                    "noqa without a justification; append `-- <why this "
                    "invariant does not apply here>`",
                )
            )
            continue
        existing = suppressions.get(target)
        if existing is not None:
            rules = rules | existing.rules
            why = f"{existing.justification}; {why}"
        suppressions[target] = Suppression(target, rules, why)
    return suppressions, findings
