"""Project-invariant static analysis (``repro lint``).

The reproduction keeps three load-bearing invariants that runtime tests
alone enforce too late: bit-identical reference-vs-compiled/vectorized
paths, deterministic mining and training, and a non-blocking asyncio
serving layer. This package encodes them as AST-based lint rules so a
violation is rejected at diff time, before it ships as a flaky
benchmark or a prod incident:

========  ============================================================
REP001    nondeterminism in ``runtime/``/``training/``/``mining/``/
          ``querylog/`` (unseeded module-level RNG, iteration over
          unordered sets, unsorted directory listings)
REP002    blocking calls inside ``async def`` in ``serving/``
REP005    parity coverage — public symbols of the compiled/vectorized
          fast paths must name a reference twin and be exercised by a
          test under ``tests/``
REP006    bare/overbroad ``except`` that can swallow ``ServingError``
REP007    imports against the subsystem layer order, load-time cycles
REP008    blocking calls reached transitively from ``async def`` in
          ``serving/``
REP009    replica ops or ``/stats`` keys with only one side in the code
REP010    public symbols nothing references
========  ============================================================

Findings can be suppressed per line with a justified comment::

    except Exception:  # repro: noqa[REP006] -- fan-out boundary

(the justification after ``--`` is mandatory; a bare suppression, or
one naming a rule id that is not registered, is itself reported as
**REP000**). The engine is exposed on the command line as
``repro lint`` with stable exit codes: 0 clean, 1 findings, 2 usage
error.
"""

from __future__ import annotations

from repro.analysis.engine import LintResult, ProjectContext, SourceFile, run_lint
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, all_rules, rule_ids

__all__ = [
    "Finding",
    "LintResult",
    "ProjectContext",
    "Rule",
    "SourceFile",
    "all_rules",
    "rule_ids",
    "run_lint",
]
