"""Dynamic micro-batching for concurrent single-item requests.

``CompiledDetector.detect_batch`` amortizes per-call overhead (memo
setup, cache locality) that per-request ``detect`` calls pay over and
over; under concurrency the server should be calling it. The
:class:`MicroBatcher` makes that happen without changing the caller
contract: each request awaits its own item, and the batcher coalesces
whatever is pending into one runner call. The policy has no timer; a
submit dispatches the forming batch at once when

- no batch is running (an idle server answers a lone request with no
  added wait), or
- the forming batch has reached ``max_batch_size``,

and otherwise the item waits for a running batch to finish: a finishing
batch dispatches whatever accumulated behind it. Batch size therefore
follows load — one at a time when idle, up to ``max_batch_size`` under
a burst.

Results keep per-item attribution: the runner returns one outcome per
item in order, and an outcome that is an :class:`Exception` instance is
raised to *that* item's awaiter only — one poisoned request cannot fail
its batch-mates. A runner that raises fails the whole batch (every
awaiter sees that exception).
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Awaitable, Callable, Generic, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Runner contract: one outcome per item, in item order; an Exception
#: outcome is delivered to that item's future via ``set_exception``.
BatchRunner = Callable[[list[T]], Awaitable[list[R]]]

#: Dispatch observer contract: called once per dispatched batch with
#: ``(batch_size, oldest_wait_seconds)`` — how many items coalesced and
#: how long the batch's first item sat in the forming queue. The serving
#: layer wires this to a ``queue_wait`` stage histogram
#: (:class:`~repro.serving.metrics.ServingMetrics`).
DispatchObserver = Callable[[int, float], None]


class MicroBatcher(Generic[T, R]):
    """Coalesce concurrent ``submit_nowait`` calls into batched runner
    calls.

    Must be used from a single asyncio event loop (the loop is captured
    on first submit). ``flush()`` forces the forming batch out early —
    the drain path uses it — and ``join()`` waits for every dispatched
    batch to finish.
    """

    def __init__(
        self,
        runner: BatchRunner,
        max_batch_size: int = 32,
        on_dispatch: DispatchObserver | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        self._runner = runner
        self._max_batch_size = max_batch_size
        self._on_dispatch = on_dispatch
        self._pending: list[tuple[T, asyncio.Future]] = []
        self._oldest_enqueued = 0.0
        self._running = 0
        self._tasks: set[asyncio.Task] = set()
        self._loop: asyncio.AbstractEventLoop | None = None

    def submit_nowait(self, item: T) -> asyncio.Future:
        """Enqueue ``item`` and return the future of its outcome.

        The future resolves when the batch containing the item runs;
        awaiting it is how callers receive their result.
        """
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        future: asyncio.Future = loop.create_future()
        if not self._pending:
            self._oldest_enqueued = perf_counter()
        self._pending.append((item, future))
        if not self._running or len(self._pending) >= self._max_batch_size:
            self.flush()
        return future

    def flush(self) -> None:
        """Dispatch the forming batch now (no-op when empty)."""
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        if self._on_dispatch is not None:
            self._on_dispatch(
                len(batch), perf_counter() - self._oldest_enqueued
            )
        assert self._loop is not None  # submit_nowait set it
        self._running += 1
        task = self._loop.create_task(self._run(batch))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def join(self) -> None:
        """Flush, then wait until every dispatched batch has finished."""
        self.flush()
        while self._tasks:
            await asyncio.gather(*tuple(self._tasks), return_exceptions=True)

    async def _run(self, batch: list[tuple[T, asyncio.Future]]) -> None:
        items = [item for item, _ in batch]
        try:
            outcomes = await self._runner(items)
            if len(outcomes) != len(items):  # pragma: no cover - runner bug
                raise RuntimeError(
                    f"batch runner returned {len(outcomes)} outcomes "
                    f"for {len(items)} items"
                )
        # repro: noqa[REP006] -- fan-out boundary: the runner's exception is
        # re-delivered to every awaiter via set_exception, never swallowed.
        except Exception as exc:
            outcomes = [exc] * len(items)
        finally:
            self._running -= 1
        for (_, future), outcome in zip(batch, outcomes):
            if future.cancelled():
                continue
            if isinstance(outcome, Exception):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)
        # Whatever arrived while this batch ran is the next batch.
        self.flush()
