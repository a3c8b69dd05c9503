"""REP002 — blocking calls inside ``async def`` in the serving layer.

The serving tier runs one event loop per process, and detection runs
inline on it: one capped detection is the one sanctioned hold on the
loop, and every other coroutine must yield promptly. One ``time.sleep`` or
synchronous ``subprocess``/file/socket call in a coroutine stalls
*every* in-flight request for its duration — invisible in unit tests,
catastrophic under load. Use ``asyncio.sleep``, ``loop.run_in_executor``, or the asyncio
stream/subprocess APIs instead.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.asthelpers import async_functions, walk_same_scope
from repro.analysis.context import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import file_rule

_EXACT = {
    "time.sleep",
    "os.system",
    "os.popen",
    "os.wait",
    "os.waitpid",
    "open",
    "input",
    "socket.socket",
    "socket.create_connection",
    "socket.getaddrinfo",
    "socket.gethostbyname",
    "urllib.request.urlopen",
}

_PREFIXES = ("subprocess.", "requests.", "shutil.", "http.client.")


def _is_blocking(resolved: str) -> bool:
    return resolved in _EXACT or resolved.startswith(_PREFIXES)


@file_rule(
    "REP002",
    "blocking call inside async def stalls the serving event loop",
    scope=("serving/",),
)
def check(ctx: FileContext) -> Iterator[Finding]:
    """Flag blocking calls inside ``async def`` coroutines."""
    for coroutine in async_functions(ctx.tree):
        for node in walk_same_scope(coroutine):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve_call(node.func)
            if resolved is None or not _is_blocking(resolved):
                continue
            yield Finding(
                ctx.relpath,
                node.lineno,
                node.col_offset + 1,
                "REP002",
                f"blocking call `{resolved}` inside `async def "
                f"{coroutine.name}` stalls every in-flight request; use the "
                "asyncio equivalent or run_in_executor",
            )
