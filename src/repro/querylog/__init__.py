"""Search-log substrate.

The paper mines instance-level head-modifier pairs from a production search
log (queries, frequencies, clicks, sessions). This package is the synthetic
equivalent: a generative model whose latent *intents* (head instance +
modifier instances, each modifier flagged constraint / non-constraint)
render into query surfaces and click distributions.

The crucial property: **clicked URLs are a function of the intent's head
and its constraint modifiers only.** Dropping a non-constraint modifier
leaves the click distribution unchanged; dropping the head or a constraint
changes it. That is precisely the observable signal the paper's log mining
exploits, so the mining code runs unmodified against a real log.

Ground-truth labels are kept in a separate table
(:attr:`QueryLog.gold_labels`) that the mining path never reads; it stands
in for the paper's human-judged evaluation queries.

Public names resolve on first use (:mod:`repro.utils.lazy`), so importing
the package loads none of its submodules.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.querylog.generator import LogConfig, QueryLogGenerator, generate_log
    from repro.querylog.models import (
        GoldLabel,
        GoldModifier,
        QueryLog,
        QueryRecord,
        SessionRecord,
    )
    from repro.querylog.stats import (
        LogStatistics,
        click_similarity,
        host_path_similarity,
    )
    from repro.querylog.storage import load_query_log, save_query_log
    from repro.querylog.urls import result_urls, url_host_path

__all__ = [
    "LogConfig",
    "QueryLogGenerator",
    "generate_log",
    "QueryLog",
    "QueryRecord",
    "SessionRecord",
    "GoldLabel",
    "GoldModifier",
    "LogStatistics",
    "click_similarity",
    "host_path_similarity",
    "save_query_log",
    "load_query_log",
    "result_urls",
    "url_host_path",
]

if not TYPE_CHECKING:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.querylog.generator": (
                "LogConfig",
                "QueryLogGenerator",
                "generate_log",
            ),
            "repro.querylog.models": (
                "GoldLabel",
                "GoldModifier",
                "QueryLog",
                "QueryRecord",
                "SessionRecord",
            ),
            "repro.querylog.stats": (
                "LogStatistics",
                "click_similarity",
                "host_path_similarity",
            ),
            "repro.querylog.storage": ("load_query_log", "save_query_log"),
            "repro.querylog.urls": ("result_urls", "url_host_path"),
        },
    )
