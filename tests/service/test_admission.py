"""The token's lane: one job at a time, in arrival order.

:class:`AdmissionController` runs every statement's token work as one
job on one worker thread.  What it promises, checked here:

* jobs run strictly in arrival order, readers and writers alike, and
  each reports how long it waited for its turn;
* a job that raises ends its turn like any other -- the lane stays
  usable and the failure is counted;
* a request cancelled before its turn never runs, so its statement is
  not applied; one cancelled *during* its turn still finishes before
  the next turn starts;
* ``describe()`` reads ``reserved_now`` and ``queue_depth`` 0 once the
  lane drains (a turn holds the whole capacity while it runs);
* through the server, a read queued behind a write of its table is
  admitted once and reports the write's generations.
"""

import asyncio
import contextvars
import threading

import pytest

from repro.service.admission import AdmissionController
from repro.service.client import AsyncGhostClient
from repro.service.server import GhostServer

from harness import build_db

CAPACITY = 65536


class Gate:
    """A job that holds the lane until released."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self):
        self.started.set()
        assert self.release.wait(10), "gate never released"
        return "gate"

    async def entered(self):
        assert await asyncio.to_thread(self.started.wait, 10)


async def until(predicate, what: str):
    for _ in range(1000):
        if predicate():
            return
        await asyncio.sleep(0.005)
    raise AssertionError(f"timed out waiting for {what}")


def test_jobs_run_in_arrival_order_across_readers_and_writers():
    async def run():
        lane = AdmissionController(CAPACITY)
        gate = Gate()
        holder = asyncio.ensure_future(lane.admit(gate))
        await gate.entered()
        ran = []
        kinds = ["write", "read", "read", "write", "read"]
        jobs = [asyncio.ensure_future(
                    lane.admit(lambda i=i, k=k: ran.append((i, k)) or k))
                for i, k in enumerate(kinds)]
        await until(lambda: lane.queue_depth == len(kinds), "queued jobs")
        assert ran == []                      # all parked behind the gate
        gate.release.set()
        assert await holder == ("gate", pytest.approx(0.0, abs=0.05))
        results = [await job for job in jobs]
        assert ran == list(enumerate(kinds))  # arrival order, no overtake
        assert [r for r, _ in results] == kinds
        assert all(waited > 0 for _, waited in results)
        stats = lane.describe()
        assert stats["admitted"] == len(kinds) + 1
        assert stats["queued_total"] == len(kinds)
        assert stats["max_queue_depth"] == len(kinds)
        lane.close()

    asyncio.run(run())


def test_a_raising_job_leaves_the_lane_usable_and_is_counted():
    async def run():
        lane = AdmissionController(CAPACITY)

        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            await lane.admit(boom)
        assert (await lane.admit(lambda: 7))[0] == 7
        assert lane.describe()["failed"] == 1
        assert lane.describe()["reserved_now"] == 0
        lane.close()

    asyncio.run(run())


def test_a_request_cancelled_before_its_turn_never_runs():
    db = build_db()
    insert = "INSERT INTO T0 VALUES (0, 0, 1, 1, 5)"
    before = db.table_generations["T0"]

    async def run():
        lane = AdmissionController(CAPACITY)
        gate = Gate()
        holder = asyncio.ensure_future(lane.admit(gate))
        await gate.entered()
        doomed = asyncio.ensure_future(lane.admit(lambda: db.execute(insert)))
        after = asyncio.ensure_future(lane.admit(lambda: "after"))
        await until(lambda: lane.queue_depth == 2, "queued jobs")
        doomed.cancel()
        with pytest.raises(asyncio.CancelledError):
            await doomed
        assert lane.queue_depth == 1
        gate.release.set()
        await holder
        assert (await after)[0] == "after"   # the next job got the turn
        assert lane.describe()["admitted"] == 2
        lane.close()

    asyncio.run(run())
    assert db.table_generations["T0"] == before   # never applied


def test_a_job_cancelled_during_its_turn_finishes_before_the_next():
    async def run():
        lane = AdmissionController(CAPACITY)
        gate = Gate()
        holder = asyncio.ensure_future(lane.admit(gate))
        await gate.entered()
        holder.cancel()                       # the caller goes away ...
        with pytest.raises(asyncio.CancelledError):
            await holder
        ran = []
        nxt = asyncio.ensure_future(lane.admit(lambda: ran.append(1)))
        await asyncio.sleep(0.05)
        assert ran == [] and lane.describe()["reserved_now"] == CAPACITY
        gate.release.set()                    # ... its job still owns
        await nxt                             # the token until it ends
        assert ran == [1]
        lane.close()

    asyncio.run(run())


def test_describe_reads_zero_once_drained():
    async def run():
        lane = AdmissionController(CAPACITY)
        assert lane.describe()["peak_reserved"] == 0
        gate = Gate()
        holder = asyncio.ensure_future(lane.admit(gate))
        await gate.entered()
        queued = asyncio.ensure_future(lane.admit(lambda: None))
        await until(lambda: lane.queue_depth == 1, "a queued job")
        busy = lane.describe()
        assert busy["reserved_now"] == CAPACITY   # a turn holds it all
        assert busy["queue_depth"] == 1
        gate.release.set()
        await holder
        await queued
        drained = lane.describe()
        assert drained["reserved_now"] == 0
        assert drained["queue_depth"] == 0
        assert drained["peak_reserved"] == drained["capacity"] == CAPACITY
        lane.close()

    asyncio.run(run())


def test_a_job_runs_in_its_callers_context():
    """Context variables (a tracer's current span, say) follow the job
    onto the lane's worker thread."""
    var = contextvars.ContextVar("var", default="unset")

    async def run():
        lane = AdmissionController(CAPACITY)
        var.set("caller")
        (seen, thread), _ = await lane.admit(
            lambda: (var.get(), threading.current_thread()))
        assert seen == "caller"
        assert thread is not threading.current_thread()
        lane.close()

    asyncio.run(run())


def test_a_read_queued_behind_a_write_runs_once_at_the_writes_state():
    """Block the lane, send a write, then a read of the written table,
    then release: the read is admitted once and its ``generations``
    frame equals the write's -- no pin can go stale while it waits."""
    db = build_db()
    read = "SELECT T0.id, T0.v1 FROM T0 WHERE T0.v1 < 3"

    async def run():
        async with GhostServer(db) as server:
            lane = server.admission
            async with await AsyncGhostClient.connect(
                    "127.0.0.1", server.port) as client:
                before = await client.execute(read)
                admitted = lane.describe()["admitted"]
                gate = Gate()
                holder = asyncio.ensure_future(lane.admit(gate))
                await gate.entered()
                write = asyncio.ensure_future(client.execute(
                    "INSERT INTO T0 VALUES (0, 0, 1, 1, 5)"))
                await until(lambda: lane.queue_depth == 1, "the write")
                reader = asyncio.ensure_future(client.execute(read))
                await until(lambda: lane.queue_depth == 2, "the read")
                gate.release.set()
                await holder
                return before, await write, await reader, \
                    lane.describe()["admitted"] - admitted

    before, write, reader, admitted = asyncio.run(run())
    assert admitted == 3                  # gate, write, read: once each
    assert reader.generations["T0"] == write.generations["T0"]
    assert reader.generations["T0"] != before.generations["T0"]
    assert sorted(reader.rows) == sorted(db.reference_query(read)[1])
