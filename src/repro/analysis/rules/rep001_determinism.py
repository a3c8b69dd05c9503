"""REP001 — nondeterminism in the deterministic subsystems.

``runtime/``, ``training/``, and ``mining/`` promise bit-identical
output for any worker count (the parity suites), and ``querylog/``
builds the log statistics whose counter order a snapshot serializes.
Three constructs quietly break that promise:

- **unseeded module-level RNG** (``random.shuffle``, ``numpy.random.*``)
  — per-process streams diverge between workers and runs. Seeded
  generator construction (``random.Random(seed)``,
  ``numpy.random.default_rng(seed)``, :func:`repro.utils.randx.rng_from_seed`)
  is the sanctioned form and is not flagged.
- **iterating an unordered set** in a ``for``/comprehension — order is
  salted per process (``PYTHONHASHSEED``), so anything ordered or
  float-accumulated downstream differs run to run. Membership tests and
  ``sorted(set(...))`` are fine.
- **unsorted directory listings** (``os.listdir``, ``glob``,
  ``Path.glob``) — filesystem order is platform-dependent; wrap in
  ``sorted(...)``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.asthelpers import parent_map
from repro.analysis.context import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import file_rule

#: Seeded-generator constructors exempt from the module-RNG ban.
_SEEDED_RNG = {
    "random.Random",
    "random.SystemRandom",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
}

_LISTING_OS = {"os.listdir", "os.scandir"}
_LISTING_ATTRS = {"glob", "iglob", "rglob"}

_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}


def _is_module_rng(resolved: str) -> bool:
    if resolved in _SEEDED_RNG:
        return False
    return resolved.startswith("random.") or resolved.startswith("numpy.random.")


def _is_unsorted_listing(resolved: str | None, call: ast.Call) -> bool:
    if resolved in _LISTING_OS:
        return True
    func = call.func
    return isinstance(func, ast.Attribute) and func.attr in _LISTING_ATTRS


def _is_set_expr(ctx: FileContext, node: ast.expr) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call):
        resolved = ctx.resolve_call(node.func)
        if resolved in ("set", "frozenset"):
            return True
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return True
    return False


@file_rule(
    "REP001",
    "nondeterminism (unseeded RNG, set iteration, unsorted listings) in "
    "the bit-identical subsystems",
    scope=("runtime/", "training/", "mining/", "querylog/", "benchmarks/"),
)
def check(ctx: FileContext) -> Iterator[Finding]:
    """Flag unseeded RNG, set iteration, and unsorted listings."""
    parents = parent_map(ctx.tree)

    def finding(node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(ctx.relpath, line, col, "REP001", message)

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            resolved = ctx.resolve_call(node.func)
            if resolved is not None and _is_module_rng(resolved):
                yield finding(
                    node,
                    f"unseeded module-level RNG `{resolved}` breaks replay "
                    "determinism; derive a seeded generator via "
                    "repro.utils.randx.rng_from_seed",
                )
            elif _is_unsorted_listing(resolved, node):
                parent = parents.get(node)
                wrapped = (
                    isinstance(parent, ast.Call)
                    and isinstance(parent.func, ast.Name)
                    and parent.func.id == "sorted"
                )
                if not wrapped:
                    shown = resolved or f"*.{getattr(node.func, 'attr', '?')}"
                    yield finding(
                        node,
                        f"directory listing `{shown}` is filesystem-ordered; "
                        "wrap it in sorted(...)",
                    )
        iterables: list[ast.expr] = []
        if isinstance(node, ast.For):
            iterables.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iterables.extend(gen.iter for gen in node.generators)
        for iterable in iterables:
            if _is_set_expr(ctx, iterable):
                yield finding(
                    iterable,
                    "iterating an unordered set feeds hash-salted order into "
                    "downstream accumulation; iterate sorted(...) or keep a "
                    "list alongside the set",
                )
