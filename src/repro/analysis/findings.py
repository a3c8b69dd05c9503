"""The unit of lint output: one :class:`Finding` per rule violation.

A finding pins a rule id to a source location plus a human-readable
message.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Sort order (path, line, col, rule) is the order reporters print in.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str = field(compare=False)

    def to_dict(self) -> dict[str, object]:
        """JSON-reporter shape (one object per finding)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        """The text-reporter line: ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
