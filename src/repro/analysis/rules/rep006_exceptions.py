"""REP006 — bare/overbroad ``except`` that can swallow failure signals.

:class:`~repro.errors.ServingError` is load-bearing: the serving layer
and its replica fleet promise that a replica failure *surfaces
deterministically* rather than producing silently partial output. A
``except:`` or ``except Exception:`` between the raise site and the
caller eats that promise.

Flagged: bare ``except``; ``except Exception``/``except BaseException``
(alone or in a tuple) whose handler body contains no ``raise``. Handlers
that re-raise (``raise ServingError(...) from exc``) are the sanctioned
translation pattern and pass. Intentional terminal handlers — per-item
error attribution at a fan-out boundary — document themselves with a
justified ``# repro: noqa[REP006]``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.asthelpers import walk_same_scope
from repro.analysis.context import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import file_rule

_BROAD = {"Exception", "BaseException"}


def _broad_names(ctx: FileContext, handler: ast.ExceptHandler) -> list[str]:
    """The overbroad type names this handler catches (empty = specific)."""
    node = handler.type
    if node is None:
        return []
    exprs = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for expr in exprs:
        resolved = ctx.resolve_call(expr) or ""
        terminal = resolved.rsplit(".", maxsplit=1)[-1]
        if terminal in _BROAD:
            names.append(terminal)
    return names


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise)
        for stmt in handler.body
        for node in [stmt, *walk_same_scope(stmt)]
    )


@file_rule(
    "REP006",
    "bare/overbroad except can swallow ServingError",
)
def check(ctx: FileContext) -> Iterator[Finding]:
    """Flag bare excepts and broad handlers that never re-raise."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield Finding(
                ctx.relpath,
                node.lineno,
                node.col_offset + 1,
                "REP006",
                "bare `except:` swallows everything including "
                "ServingError (and KeyboardInterrupt); catch the specific "
                "exception",
            )
            continue
        broad = _broad_names(ctx, node)
        if broad and not _reraises(node):
            yield Finding(
                ctx.relpath,
                node.lineno,
                node.col_offset + 1,
                "REP006",
                f"`except {broad[0]}` without a re-raise can swallow "
                "ServingError; catch the specific type, re-raise, "
                "or justify with noqa[REP006]",
            )
