"""Spans recorded by the benchmark around its calls into the program.

A span is (name, start, end, parent, request id). Spans live in flat
arrays while the benchmark runs and are written out once at the end.
Self time is a span's duration minus the durations of its direct
children. Nothing here touches the program's source: layers are timed
from outside, by wrapping public calls on the instances the benchmark
holds.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span store with a call stack for synchronous wrappers
    and explicit parents for interleaved (asyncio) spans."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("l")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._request = array("l")
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return name_id

    def begin(self, name: str, request: int = -1) -> int:
        """Open a span nested under the innermost open one."""
        index = len(self._start)
        parent = self._stack[-1] if self._stack else -1
        if request < 0 and parent >= 0:
            request = self._request[parent]  # children share the request id
        self._name.append(self._name_id(name))
        self._parent.append(parent)
        self._request.append(request)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self._end[index] = perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1, request: int = -1) -> int:
        """Record a span whose bounds were taken elsewhere."""
        index = len(self._start)
        self._name.append(self._name_id(name))
        self._start.append(start)
        self._end.append(end)
        self._parent.append(parent)
        self._request.append(request)
        return index

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Time every call of ``owner.attribute`` as a span, by shadowing
        the bound method with an instance attribute."""
        original = getattr(owner, attribute)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                finish(index)

        setattr(owner, attribute, traced)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``count``, total ``seconds`` and ``self_seconds``
        (duration minus direct children)."""
        if not self._start:
            return {}
        names = np.asarray(self._name, dtype=np.int64)
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        parent = np.asarray(self._parent, dtype=np.int64)
        duration = end - start
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_time = duration - children
        out: dict[str, dict[str, float]] = {}
        for name_id, name in enumerate(self._names):
            mask = names == name_id
            out[name] = {
                "count": int(mask.sum()),
                "seconds": float(duration[mask].sum()),
                "self_seconds": float(self_time[mask].sum()),
            }
        return out

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line:
        ``id parent request name start_us end_us``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min(self._start) if self._start else 0.0
        with path.open("w", encoding="utf-8") as out:
            out.write("id\tparent\trequest\tname\tstart_us\tend_us\n")
            for index in range(len(self._start)):
                out.write(
                    f"{index}\t{self._parent[index]}\t{self._request[index]}\t"
                    f"{self._names[self._name[index]]}\t"
                    f"{(self._start[index] - origin) * 1e6:.1f}\t"
                    f"{(self._end[index] - origin) * 1e6:.1f}\n"
                )
