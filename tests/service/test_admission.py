"""The token's lane: one job at a time, in arrival order.

:class:`AdmissionController` runs every statement's token work as one
job, inline on the event loop.  What it promises, checked here:

* jobs run strictly in arrival order, readers and writers alike, and
  each reports how long it waited for its turn;
* a job that raises ends its turn like any other -- the lane stays
  usable and the failure is counted;
* a request cancelled before its turn never runs, so its statement is
  not applied;
* a job finishes before any other task gets the loop: neither a task
  made ready during the turn nor the cancellation of the job's own
  caller runs before it returns;
* ``describe()`` reads ``reserved_now`` and ``queue_depth`` 0 once the
  lane drains (a turn holds the whole capacity while it runs);
* a job runs in its caller's context, on the event loop's thread;
* through the server, a read queued behind a write of its table is
  admitted once and reports the write's generations, and a ``stats``
  request pipelined behind a write reports the post-write generations.

Nothing here blocks a job to hold the lane: requests queued in one
loop tick all wait, since none starts before the loop gets control.
"""

import asyncio
import contextvars
import functools
import time

import pytest

from repro.service.admission import AdmissionController
from repro.service.client import AsyncGhostClient
from repro.service.server import GhostServer

from harness import build_db

CAPACITY = 65536
INSERT = "INSERT INTO T0 VALUES (0, 0, 1, 1, 5)"
READ = "SELECT T0.id, T0.v1 FROM T0 WHERE T0.v1 < 3"


async def _request(lane, job, arrived):
    """A request's task, as the server runs it: its turn is its first
    step."""
    return lane.admit(job, arrived)


def queue(lane, *jobs):
    """Queue ``jobs`` in one loop tick: request tasks not yet started."""
    return [asyncio.ensure_future(_request(lane, job, lane.arrival()))
            for job in jobs]


def test_jobs_run_in_arrival_order_across_readers_and_writers():
    async def run():
        lane = AdmissionController(CAPACITY)
        ran = []
        kinds = ["write", "read", "read", "write", "read"]

        def job(i, kind):
            ran.append((i, kind))
            time.sleep(0.002)                 # a turn takes time
            return kind

        tasks = queue(lane, *(functools.partial(job, i, k)
                              for i, k in enumerate(kinds)))
        assert ran == []                      # all waiting for the loop
        results = await asyncio.gather(*tasks)
        assert ran == list(enumerate(kinds))  # arrival order, no overtake
        assert [r for r, _ in results] == kinds
        waits = [waited for _, waited in results]
        # every job waited out the turns ahead of it
        assert all(w >= 0.002 * k for k, w in enumerate(waits))
        stats = lane.describe()
        assert stats["admitted"] == len(kinds)
        assert stats["queued_total"] == len(kinds) - 1
        assert stats["max_queue_depth"] == len(kinds) - 1

    asyncio.run(run())


def test_a_raising_job_leaves_the_lane_usable_and_is_counted():
    async def run():
        lane = AdmissionController(CAPACITY)

        def boom():
            raise ValueError("boom")

        failing, after = queue(lane, boom, lambda: 7)
        with pytest.raises(ValueError, match="boom"):
            await failing
        assert (await after)[0] == 7
        assert lane.describe()["failed"] == 1
        assert lane.describe()["admitted"] == 2
        assert lane.describe()["reserved_now"] == 0

    asyncio.run(run())


def test_a_request_cancelled_before_its_turn_never_runs():
    db = build_db()
    before = db.table_generations["T0"]

    async def run():
        lane = AdmissionController(CAPACITY)
        first, doomed, after = queue(lane, lambda: "first",
                                     lambda: db.execute(INSERT),
                                     lambda: "after")
        doomed.cancel()                      # queued: not started yet
        with pytest.raises(asyncio.CancelledError):
            await doomed
        assert (await first)[0] == "first"
        assert (await after)[0] == "after"   # the next job got the turn
        assert lane.describe()["admitted"] == 2

    asyncio.run(run())
    assert db.table_generations["T0"] == before   # never applied


def test_a_job_finishes_before_any_other_task_gets_the_loop():
    async def run():
        lane = AdmissionController(CAPACITY)
        events = []

        async def rival():
            events.append("rival")

        def job():
            events.append("start")
            asyncio.ensure_future(rival())    # ready at once ...
            caller.cancel()                   # ... and the caller leaves
            time.sleep(0.01)
            events.append("end")

        caller, = queue(lane, job)
        with pytest.raises(asyncio.CancelledError):
            await caller
        await asyncio.sleep(0)
        assert events == ["start", "end", "rival"]
        assert lane.describe()["admitted"] == 1

    asyncio.run(run())


def test_describe_reads_zero_once_drained():
    async def run():
        lane = AdmissionController(CAPACITY)
        assert lane.describe()["peak_reserved"] == 0
        busy, _ = lane.admit(lane.describe)          # read in a turn
        assert busy["reserved_now"] == CAPACITY      # a turn holds it all
        await asyncio.gather(*queue(lane, *[lambda: None] * 3))
        drained = lane.describe()
        assert drained["reserved_now"] == 0
        assert drained["queue_depth"] == 0
        assert drained["peak_reserved"] == drained["capacity"] == CAPACITY
        assert drained["max_queue_depth"] == 2

    asyncio.run(run())


def test_a_job_runs_in_its_callers_context():
    """Context variables (a tracer's current span, say) are the
    caller's, and the job runs on the caller's event loop."""
    var = contextvars.ContextVar("var", default="unset")

    async def run():
        lane = AdmissionController(CAPACITY)
        var.set("caller")
        (seen, loop), _ = await queue(
            lane, lambda: (var.get(), asyncio.get_running_loop()))[0]
        assert seen == "caller"
        assert loop is asyncio.get_running_loop()

    asyncio.run(run())


def test_a_read_queued_behind_a_write_runs_once_at_the_writes_state():
    """Pipeline a write and then a read of the written table: the read
    is admitted once and its ``generations`` frame equals the write's
    -- no pin can go stale while it waits."""
    db = build_db()

    async def run():
        async with GhostServer(db) as server:
            lane = server.admission
            async with await AsyncGhostClient.connect(
                    "127.0.0.1", server.port) as client:
                before = await client.execute(READ)
                admitted = lane.describe()["admitted"]
                write, reader = await asyncio.gather(
                    client.execute(INSERT), client.execute(READ))
                return before, write, reader, \
                    lane.describe()["admitted"] - admitted

    before, write, reader, admitted = asyncio.run(run())
    assert admitted == 2                  # write, read: once each
    assert reader.generations["T0"] == write.generations["T0"]
    assert reader.generations["T0"] != before.generations["T0"]
    assert sorted(reader.rows) == sorted(db.reference_query(READ)[1])


def test_stats_pipelined_behind_a_write_reports_the_write():
    """``stats`` is answered in arrival order: sent right behind an
    INSERT on the same connection, it reports that INSERT's post-write
    generations, every time."""
    db = build_db()

    async def run():
        async with GhostServer(db) as server:
            async with await AsyncGhostClient.connect(
                    "127.0.0.1", server.port) as client:
                return [await asyncio.gather(client.execute(INSERT),
                                             client.server_stats())
                        for _ in range(20)]

    pairs = asyncio.run(run())
    stale = [i for i, (write, stats) in enumerate(pairs)
             if {t: tuple(g) for t, g in stats["generations"].items()}
             != write.generations]
    assert stale == []
    assert len({w.writer_seq for w, _ in pairs}) == 20
