"""The token's lane: one statement at a time, in arrival order.

The secure token has one 64 KB RAM and one channel, and it serves one
statement at a time.  :class:`AdmissionController` is that fact as
code: every statement's token work is one *job*, and the jobs run on
one worker thread, strictly in arrival order (no later statement
overtakes an earlier one, reader or writer), back to back, while the
event loop keeps serving the wire.

A turn holds the whole token, so every statement's pledge is the
database's total secure RAM -- a constant, never an estimate read off
the plan.  What a caller learns from :meth:`AdmissionController.admit`
besides the job's result is how long the job waited for its turn.

A request cancelled before its turn never runs; a job that raises ends
its turn like any other (the error goes to its caller, the count to
``failed``) and the next job starts.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class AdmissionController:
    """FIFO turns on one token, run back to back on one worker thread."""

    def __init__(self, capacity: int,
                 clock: Callable[[], float] = time.monotonic):
        #: what one turn holds: the database's whole secure RAM
        self.capacity = capacity
        self._clock = clock
        self._worker: Optional[ThreadPoolExecutor] = None
        #: jobs admitted and not finished, the running one included
        self._pending = 0
        # counters surfaced by the server's ``stats`` op (all of them,
        # like ``_pending``, change on the event loop's thread only)
        self.admitted = 0
        self.queued_total = 0
        self.max_queue_depth = 0
        self.failed = 0
        self.wait_s_total = 0.0
        self.wait_s_max = 0.0

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Jobs waiting behind the running one."""
        return max(0, self._pending - 1)

    def describe(self) -> Dict[str, float]:
        """Counter snapshot for the ``stats`` response."""
        return {
            "capacity": self.capacity,
            "reserved_now": self.capacity if self._pending else 0,
            "peak_reserved": self.capacity if self.admitted else 0,
            "admitted": self.admitted,
            "queued_total": self.queued_total,
            "queue_depth": self.queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "wait_s_total": round(self.wait_s_total, 6),
            "wait_s_max": round(self.wait_s_max, 6),
            "failed": self.failed,
        }

    # ------------------------------------------------------------------
    async def admit(self, job: Callable[[], T]) -> Tuple[T, float]:
        """Run ``job`` on the token in its turn; ``(result, waited_s)``.

        The job runs on the lane's worker thread, in the caller's
        context; ``waited_s`` is the time it spent queued for the
        token.  Once started, a job finishes even if its caller is
        cancelled, and the next turn starts only after it.
        """
        if self._worker is None:
            self._worker = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="token-lane")
        if self._pending:
            self.queued_total += 1
        self._pending += 1
        self.max_queue_depth = max(self.max_queue_depth, self.queue_depth)
        enqueued = self._clock()
        waited: List[float] = []        # set on the worker as it starts

        def turn() -> T:
            waited.append(self._clock() - enqueued)
            return job()

        submitted = self._worker.submit(contextvars.copy_context().run,
                                        turn)
        run = asyncio.wrap_future(submitted)
        run.add_done_callback(functools.partial(self._end_turn, waited))
        try:
            return await asyncio.shield(run), waited[0]
        except asyncio.CancelledError:
            if submitted.cancel():      # its turn had not come: never runs
                self._pending -= 1
            raise

    def _end_turn(self, waited: List[float], run: asyncio.Future) -> None:
        if run.cancelled():
            return                      # counted off by ``admit``
        self._pending -= 1
        self.admitted += 1
        self.wait_s_total += waited[0]
        self.wait_s_max = max(self.wait_s_max, waited[0])
        if run.exception() is not None:
            self.failed += 1

    def close(self) -> None:
        """Stop the worker thread (the lane restarts on the next job)."""
        if self._worker is not None:
            self._worker.shutdown(wait=True)
            self._worker = None
