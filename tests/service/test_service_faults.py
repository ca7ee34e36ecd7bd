"""Service fault satellites: client timeouts, retry-to-success,
idempotent replay, and the stop()-drains-writes contract."""

import asyncio

import pytest

from repro.core.ghostdb import GhostDB
from repro.faults import WireFaults
from repro.service import server as server_module
from repro.service.client import (AsyncGhostClient, ServiceError,
                                  ServiceTimeout)
from repro.service.protocol import encode_frame, read_frame
from repro.service.server import MAX_INFLIGHT_PER_CONNECTION, GhostServer


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


def test_client_close_is_idempotent_and_final():
    db = _mini_db()

    async def run():
        async with GhostServer(db) as server:
            client = await AsyncGhostClient.connect("127.0.0.1",
                                                    server.port)
            assert await client.ping()
            await client.close()
            await client.close()                 # a no-op, not an error
            with pytest.raises(ServiceError) as exc:  # raises, never hangs
                await client.ping()
            assert exc.value.error_type == "ClientClosed"

    asyncio.run(run())


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
        # the write's response is held on the wire for a while, so the
        # stop reaches its connection with the answer still to write
        server = GhostServer(
            db, wire_faults=WireFaults(stall_every=1, stall_s=0.05))
        await server.start()
        client = await AsyncGhostClient.connect(
            "127.0.0.1", server.port, timeout_s=5.0)
        stamp = server.admission.arrival
        stop_requested = []

        def arrival_then_stop():
            # the server stamps each request as it decodes the frame:
            # ask for the stop right then, while the write is queued
            stop_requested.append((asyncio.ensure_future(server.stop()),
                                   server.admission.admitted))
            return stamp()

        server.admission.arrival = arrival_then_stop
        try:
            result = await client.execute("INSERT INTO P VALUES (2, 777)")
            stopper, admitted_then = stop_requested[0]
            await stopper
            assert admitted_then == 0        # the write had not run yet
            assert server.wire_faults.stalled == 1
            return result
        finally:
            await client.close()

    result = asyncio.run(run())
    # the tagged response was delivered, not dropped by the shutdown
    assert result.kind == "dml"
    assert result.raw.get("writer_seq") == 1
    assert _count_v(db, 777) == 1


def test_stop_past_the_inflight_cap_answers_every_decoded_frame(
        monkeypatch):
    """A client pipelines more INSERTs than its connection's in-flight
    cap, and the stop's cancel reaches the connection just as it
    decodes the frame past the cap.  Every frame the server decoded is
    answered, and every applied INSERT is one of them."""
    db = _mini_db()
    n_frames = MAX_INFLIGHT_PER_CONNECTION + 8
    decoded = []

    async def read_then_stop(reader):
        request = await read_frame(reader)
        if request is not None:
            decoded.append(request["id"])
            if len(decoded) == MAX_INFLIGHT_PER_CONNECTION + 1:
                # what stop() does to each connection task
                asyncio.current_task().cancel()
        return request

    monkeypatch.setattr(server_module, "read_frame", read_then_stop)

    async def run():
        server = GhostServer(db)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            # one write: every frame is buffered before the first
            # decode, so the handler reaches the cap without yielding
            writer.write(b"".join(
                encode_frame({"op": "execute", "id": i,
                              "sql": f"INSERT INTO P VALUES (1, {900 + i})"})
                for i in range(n_frames)))
            await writer.drain()
            answered = []
            while (response := await read_frame(reader)) is not None:
                assert response["ok"], response
                answered.append(response["id"])
            writer.close()
            return answered
        finally:
            await server.stop()

    answered = asyncio.run(run())
    assert len(decoded) > MAX_INFLIGHT_PER_CONNECTION
    assert sorted(answered) == sorted(decoded)
    applied = [i for i in range(n_frames) if _count_v(db, 900 + i)]
    assert applied == sorted(answered)
