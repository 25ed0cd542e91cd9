"""Fold single HTTP queries into planner batches when the engine is busy.

Independent clients each send one query, but the engine's wins — shared
``(t, k)`` backward passes, in-batch deduplication, one executor round
trip — only materialise on *batches*.  The :class:`QueryCoalescer`
batches naturally: it never waits on a timer.  While fewer batches are in
flight than the engine has workers, a query leaves on the next
event-loop tick (so arrivals of the same tick still share one batch).
Once every worker slot is busy, queries queue up and leave together, as
one :meth:`~repro.service.engine.SPGEngine.run_batch_async` call capped
at ``max_batch``, the moment an in-flight batch finishes — the adaptive
batching of Clipper (Crankshaw et al., NSDI 2017).  An idle server thus
adds no latency, and batches grow only with load.

Event-loop-confined like the admission layer; per-query error isolation
is inherited from the engine (an errored query resolves its own future
with an errored outcome, not an exception).
"""

from __future__ import annotations

import asyncio
from typing import List, Set, Tuple

from repro.service.engine import QueryOutcome, SPGEngine

__all__ = ["QueryCoalescer"]

#: One pending entry: the normalised query and the future its HTTP
#: request handler awaits.
_Pending = Tuple[Tuple[int, int, int], "asyncio.Future[QueryOutcome]"]


class QueryCoalescer:
    """Batch single queries while the engine's worker slots are busy.

    At most ``engine.max_workers`` batches run at once.  A submit that
    finds a free slot flushes on the next event-loop tick; otherwise it
    waits for the next batch to finish (successfully or not), which frees
    a slot and takes up to ``max_batch`` pending queries with it.

    Parameters
    ----------
    engine:
        The engine batches are run on (``run_batch_async``); its
        ``max_workers`` is the number of batches allowed in flight.
    max_batch:
        Largest batch handed to the planner; a longer queue leaves as
        several batches.
    """

    def __init__(self, engine: SPGEngine, *, max_batch: int = 64) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._engine = engine
        self._slots = max(1, engine.max_workers)
        self._max_batch = max_batch
        self._pending: List[_Pending] = []
        self._flush_scheduled = False
        self._inflight: Set[asyncio.Task] = set()
        self._closed = False
        #: Flush/batch accounting for tests, ``/metrics`` and the load rig.
        self.batches_flushed = 0
        self.queries_coalesced = 0

    # ------------------------------------------------------------------
    async def submit(self, query: Tuple[int, int, int]) -> QueryOutcome:
        """Enqueue one normalised ``(s, t, k)`` query; await its outcome."""
        if self._closed:
            raise RuntimeError("coalescer is closed")
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[QueryOutcome]" = loop.create_future()
        self._pending.append((query, future))
        if len(self._inflight) < self._slots and not self._flush_scheduled:
            self._flush_scheduled = True
            loop.call_soon(self._flush_on_tick)
        return await future

    @property
    def pending(self) -> int:
        """Queries waiting for a free worker slot."""
        return len(self._pending)

    # ------------------------------------------------------------------
    def _flush_on_tick(self) -> None:
        self._flush_scheduled = False
        self._flush()

    def _flush(self) -> None:
        """Start one batch per free slot while queries are pending."""
        while self._pending and len(self._inflight) < self._slots:
            batch = self._pending[: self._max_batch]
            del self._pending[: self._max_batch]
            # The set keeps a strong reference (the loop holds tasks only
            # weakly) and counts the busy slots.
            task = asyncio.create_task(self._run_batch(batch))
            self._inflight.add(task)

    async def _run_batch(self, batch: List[_Pending]) -> None:
        queries = [query for query, _ in batch]
        try:
            report = await self._engine.run_batch_async(queries)
        except BaseException as exc:  # noqa: BLE001 - fan the failure out
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            if not isinstance(exc, Exception):
                raise  # cancellation and exit still propagate
            return
        finally:
            # Free the slot and hand it to whatever queued meanwhile.
            self._inflight.discard(asyncio.current_task())
            self._flush()
        self.batches_flushed += 1
        self.queries_coalesced += len(batch)
        for (_, future), outcome in zip(batch, report.outcomes):
            # A future may be done already if its client disconnected and
            # the handler cancelled it; the outcome is simply dropped.
            if not future.done():
                future.set_result(outcome)

    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        """Refuse new queries; answer every pending and in-flight one."""
        self._closed = True
        self._flush()
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    def __repr__(self) -> str:
        return (
            f"QueryCoalescer(slots={self._slots}, max_batch={self._max_batch}, "
            f"pending={len(self._pending)}, inflight={len(self._inflight)}, "
            f"flushed={self.batches_flushed})"
        )
