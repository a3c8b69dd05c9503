"""Start, probe and stop the serving processes under test.

Servers run as ``python -m repro.cli serve|route --snapshot FILE --port 0``
(plus ``--replicas 1`` for route): the default serving settings, from
this checkout's source. Set-up time runs from process spawn to the
ready line plus the first ``200`` from ``/healthz``.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import sys
from pathlib import Path
from time import perf_counter

from perfbench.common import ROOT, BenchError, child_env, peak_rss_mb
from perfbench.loadgen import get_json

READY = re.compile(rb"(?:serving|routing .*) on http://([0-9.]+):(\d+)")
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` (from ``/proc``)."""
    parents: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents.setdefault(int(fields[1]), []).append(int(entry.name))
    found, frontier = [], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


class Server:
    """One ``repro serve`` / ``repro route`` process tree."""

    def __init__(self, command: list[str], log_path: Path) -> None:
        self.command = command
        self.log_path = log_path
        self.process: asyncio.subprocess.Process | None = None
        self.host = "127.0.0.1"
        self.port = 0
        self._drain: asyncio.Task | None = None
        self._log = None

    async def start(self) -> float:
        """Spawn and wait until ready; returns the set-up seconds."""
        self._log = self.log_path.open("ab")
        began = perf_counter()
        self.process = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.cli",
            *self.command,
            cwd=ROOT,
            env=child_env(),
            stdout=asyncio.subprocess.PIPE,
            stderr=self._log,
        )
        assert self.process.stdout is not None
        try:
            await asyncio.wait_for(self._await_ready(), READY_TIMEOUT_S)
        except (asyncio.TimeoutError, BenchError):
            await self.stop()
            raise BenchError(
                f"server {' '.join(self.command[:1])} did not become ready; "
                f"log: {self.log_path.read_text(errors='replace')[-1500:]}"
            ) from None
        return perf_counter() - began

    async def _await_ready(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        while True:
            line = await self.process.stdout.readline()
            if not line:
                raise BenchError("server exited before its ready line")
            match = READY.search(line)
            if match:
                self.host, self.port = match.group(1).decode(), int(match.group(2))
                break
        self._drain = asyncio.ensure_future(self._drain_stdout())
        while True:
            try:
                status, _ = await get_json(self.host, self.port, "/healthz")
            except OSError:
                status = 0
            if status == 200:
                return
            await asyncio.sleep(0.005)

    async def _drain_stdout(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        while await self.process.stdout.read(4096):
            pass

    def pids(self) -> list[int]:
        if self.process is None or self.process.returncode is not None:
            return []
        return [self.process.pid, *descendants(self.process.pid)]

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the server and every process below it."""
        return peak_rss_mb(self.pids())

    async def stats(self) -> dict:
        status, payload = await get_json(self.host, self.port, "/stats")
        if status != 200:
            raise BenchError(f"/stats answered {status}")
        return payload

    async def stop(self) -> None:
        """SIGTERM, wait for a graceful drain, then make sure the whole
        tree is gone."""
        process = self.process
        if process is None:
            return
        tree = self.pids()
        if process.returncode is None:
            process.send_signal(signal.SIGTERM)
            try:
                await asyncio.wait_for(process.wait(), STOP_TIMEOUT_S)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()
        for pid in tree[1:]:
            await _reap(pid)
        if self._drain is not None:
            await self._drain
        if self._log is not None:
            self._log.close()
        self.process = None


async def _reap(pid: int) -> None:
    """Wait for a grandchild to exit; kill it if it lingers."""
    deadline = perf_counter() + STOP_TIMEOUT_S
    while Path(f"/proc/{pid}").exists():
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            return
        if state == "Z":
            return  # exited; its parent already reaped or will
        if perf_counter() > deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = float("inf")
        await asyncio.sleep(0.02)
