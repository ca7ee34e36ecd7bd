"""Service fault satellites: client timeouts, retry-to-success,
idempotent replay, and the stop()-drains-writes contract."""

import asyncio
import threading

import pytest

from repro.core.ghostdb import GhostDB
from repro.faults import WireFaults
from repro.service.client import (AsyncGhostClient, GhostClient,
                                  ServiceError, ServiceTimeout)
from repro.service.server import GhostServer

from harness import serving


def _mini_db():
    db = GhostDB()
    db.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
               "v int)")
    db.execute("CREATE TABLE C (id int, w int)")
    db.load("C", [(i,) for i in range(4)])
    db.load("P", [(i % 4, i) for i in range(8)])
    db.build()
    return db


def _count_v(db, v):
    return len(db.execute("SELECT P.id FROM P WHERE P.v = ?",
                          params=(v,)).rows)


def test_sync_client_times_out_cleanly_on_a_stalled_server():
    db = _mini_db()
    with serving(db) as server:
        server.wire_faults = WireFaults(stall_every=1, stall_s=0.6)
        client = GhostClient("127.0.0.1", server.port, timeout_s=0.1)
        try:
            with pytest.raises(ServiceTimeout):
                client.execute("SELECT C.id FROM C")
            assert client.timeouts_total == 1
        finally:
            client.close()


def test_sync_client_retries_dropped_frames_to_exactly_once():
    db = _mini_db()
    with serving(db) as server:
        server.wire_faults = WireFaults(drop_every=2)
        with GhostClient("127.0.0.1", server.port, timeout_s=2.0,
                         retries=2, backoff_s=0.01) as client:
            for i in range(4):
                result = client.execute("INSERT INTO P VALUES (?, ?)",
                                        params=(i % 4, 200 + i))
                assert result.kind == "dml"
            assert client.retries_total > 0      # the schedule dropped
    for i in range(4):
        assert _count_v(db, 200 + i) == 1        # applied exactly once


def test_sync_client_close_is_idempotent_and_final():
    db = _mini_db()
    with serving(db) as server:
        client = GhostClient("127.0.0.1", server.port)
        assert client.ping()
        client.close()
        client.close()                           # a no-op, not an error
        with pytest.raises(ServiceError) as exc:  # raises, never hangs
            client.ping()
        assert exc.value.error_type == "ConnectionLost"


def test_async_client_times_out_cleanly_on_a_stalled_server():
    db = _mini_db()

    async def run():
        server = GhostServer(
            db, wire_faults=WireFaults(stall_every=1, stall_s=0.6))
        await server.start()
        try:
            client = await AsyncGhostClient.connect(
                "127.0.0.1", server.port, timeout_s=0.1)
            try:
                with pytest.raises(ServiceTimeout):
                    await client.execute("SELECT C.id FROM C")
                assert client.timeouts_total == 1
            finally:
                await client.close()
        finally:
            await server.stop()

    asyncio.run(run())


def test_dropped_response_frames_retry_to_success():
    db = _mini_db()

    async def run():
        server = GhostServer(db, wire_faults=WireFaults(drop_every=2))
        await server.start()
        try:
            client = await AsyncGhostClient.connect(
                "127.0.0.1", server.port, timeout_s=2.0, retries=4,
                backoff_s=0.01)
            try:
                for i in range(4):
                    result = await client.execute(
                        "INSERT INTO P VALUES (?, ?)", params=(i % 4,
                                                               100 + i))
                    assert result.kind == "dml"
                return client.retries_total
            finally:
                await client.close()
        finally:
            await server.stop()

    retries = asyncio.run(run())
    assert retries >= 1                  # the schedule really dropped
    for i in range(4):
        assert _count_v(db, 100 + i) == 1


def test_resent_idempotency_key_replays_instead_of_reapplying():
    db = _mini_db()

    async def run():
        server = GhostServer(db)
        await server.start()
        try:
            client = await AsyncGhostClient.connect(
                "127.0.0.1", server.port)
            try:
                payload = {"op": "execute",
                           "sql": "INSERT INTO P VALUES (1, 555)",
                           "params": None, "ikey": "fixed-ikey-1"}
                first = await client._call_with_retries(dict(payload))
                second = await client._call_with_retries(dict(payload))
                return first, second, server.replays
            finally:
                await client.close()
        finally:
            await server.stop()

    first, second, replays = asyncio.run(run())
    assert not first.get("replayed")
    assert second.get("replayed")
    assert second.get("writer_seq") == first.get("writer_seq")
    assert replays == 1
    assert _count_v(db, 555) == 1        # applied exactly once


def test_stop_drains_the_statement_queued_on_the_lane():
    db = _mini_db()

    async def run():
        server = GhostServer(db)
        await server.start()
        client = await AsyncGhostClient.connect(
            "127.0.0.1", server.port, timeout_s=5.0)
        try:
            # hold the token's lane with a blocked job so the DML parks
            # behind it, then stop the server while it is still queued
            release = threading.Event()
            holder = asyncio.ensure_future(server.admission.admit(
                lambda: release.wait(10)))
            write = asyncio.create_task(
                client.execute("INSERT INTO P VALUES (2, 777)"))
            for _ in range(200):
                if server.admission.queue_depth:
                    break
                await asyncio.sleep(0.005)
            assert server.admission.queue_depth, "write never queued"
            stopper = asyncio.create_task(server.stop())
            await asyncio.sleep(0.02)
            assert not stopper.done()        # still draining the write
            release.set()
            await holder
            result = await write
            await stopper
            return result
        finally:
            await client.close()

    result = asyncio.run(run())
    # the tagged response was delivered, not dropped by the shutdown
    assert result.kind == "dml"
    assert result.raw.get("writer_seq") == 1
    assert _count_v(db, 777) == 1
