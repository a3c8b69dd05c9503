"""Rule implementations; importing this package registers every rule.

One module per rule keeps each invariant's definition (and its false-
positive boundary) reviewable in isolation. New rules: add a module
here, decorate the checker with ``@file_rule``/``@project_rule``, and
import it below — the registry, CLI ``--rule`` filter, reporters, and
docs table pick it up automatically.
"""

from repro.analysis.rules import (  # noqa: F401  (registration side effect)
    rep001_determinism,
    rep002_blocking,
    rep005_parity,
    rep006_exceptions,
    rep007_layering,
    rep008_transitive,
    rep009_protocol,
    rep010_deadapi,
)
