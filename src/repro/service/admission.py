"""The token's lane: one statement at a time, in arrival order.

The secure token has one 64 KB RAM and one channel, and it serves one
statement at a time.  :class:`AdmissionController` is that fact as
code: every statement's token work is one *job*, and a job runs
synchronously on the event loop, at the first step of the task that
asked for it.  asyncio then supplies the lane's guarantees itself:
tasks start in the order they were created (the server creates one per
request, in the order it decodes their frames), so no later statement
overtakes an earlier one, reader or writer; and a job never awaits, so
nothing else -- no other job, no wire I/O, no cancellation -- runs
until it returns.  The price: while a job runs the server reads and
answers nothing.

A turn holds the whole token, so every statement's pledge is the
database's total secure RAM -- a constant, never an estimate read off
the plan.  What a caller learns from :meth:`AdmissionController.admit`
besides the job's result is how long the job waited for its turn,
counted from the :meth:`~AdmissionController.arrival` stamp the server
takes as it decodes the request.

A request cancelled before its turn never runs; a job that raises ends
its turn like any other (the error goes to its caller, the count to
``failed``) and the next job starts.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Tuple, TypeVar

T = TypeVar("T")

#: when a request arrived: ``(clock reading, turns finished by then)``
Arrival = Tuple[float, int]


class AdmissionController:
    """FIFO turns on one token, each run inline on the event loop."""

    def __init__(self, capacity: int,
                 clock: Callable[[], float] = time.monotonic):
        #: what one turn holds: the database's whole secure RAM
        self.capacity = capacity
        self._clock = clock
        self._running = False
        # counters surfaced by the server's ``stats`` op
        self.admitted = 0
        self.queued_total = 0
        self.max_queue_depth = 0
        self.failed = 0
        self.wait_s_total = 0.0
        self.wait_s_max = 0.0

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, float]:
        """Counter snapshot for the ``stats`` response.

        ``queue_depth`` is always 0: the lane holds no job it has not
        started -- a request waiting for its turn is a task the event
        loop has not stepped yet.  ``max_queue_depth`` is the most
        turns one job found ahead of it on arrival.
        """
        return {
            "capacity": self.capacity,
            "reserved_now": self.capacity if self._running else 0,
            "peak_reserved": self.capacity if self.admitted else 0,
            "admitted": self.admitted,
            "queued_total": self.queued_total,
            "queue_depth": 0,
            "max_queue_depth": self.max_queue_depth,
            "wait_s_total": round(self.wait_s_total, 6),
            "wait_s_max": round(self.wait_s_max, 6),
            "failed": self.failed,
        }

    def arrival(self) -> Arrival:
        """Stamp a request as it arrives (the server: as it decodes the
        frame), for :meth:`admit` to measure the wait from."""
        return self._clock(), self.admitted

    # ------------------------------------------------------------------
    def admit(self, job: Callable[[], T],
              arrived: Optional[Arrival] = None) -> Tuple[T, float]:
        """Run ``job`` on the token now; ``(result, waited_s)``.

        The caller's task is the turn: it calls this at its first step,
        so the job runs in the caller's context without yielding the
        loop.  ``waited_s`` is the time since ``arrived`` (default:
        now), the time the statement queued for the token.
        """
        since, turns = arrived or self.arrival()
        waited = self._clock() - since
        ahead = self.admitted - turns
        if ahead:
            self.queued_total += 1
            self.max_queue_depth = max(self.max_queue_depth, ahead)
        self._running = True
        try:
            return job(), waited
        except Exception:
            self.failed += 1
            raise
        finally:
            self._running = False
            self.admitted += 1
            self.wait_s_total += waited
            self.wait_s_max = max(self.wait_s_max, waited)
