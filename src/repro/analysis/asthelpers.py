"""Small AST utilities shared by the rule implementations."""

from __future__ import annotations

import ast
from collections.abc import Iterator

#: Nodes that open a new scope; same-scope walks stop at these.
SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def walk_same_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Yield descendants of ``node`` without entering nested scopes.

    ``node`` itself is not yielded; a nested function/class/lambda is
    yielded but not descended into — its body belongs to another scope.
    """
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, SCOPE_NODES):
            stack.extend(ast.iter_child_nodes(child))


def parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    """Child → parent for every node under ``tree``."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def async_functions(tree: ast.AST) -> Iterator[ast.AsyncFunctionDef]:
    """Every ``async def`` in the file, at any nesting depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.AsyncFunctionDef):
            yield node

