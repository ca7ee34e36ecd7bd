"""Durable images through the service: snapshot op, --image serving,
writer-lane coordination, and hostile-frame connection drops."""

import asyncio
import struct

import pytest

from repro.core.ghostdb import GhostDB
from repro.service.client import AsyncGhostClient, ServiceError
from repro.service.protocol import MAX_FRAME_BYTES
from repro.workloads.queries import query_q

from harness import connected

SELECT_T0 = "SELECT T0.id, T0.v1 FROM T0 WHERE T0.v1 < 3"


def test_snapshot_op_writes_a_restorable_image(fresh_db, tmp_path):
    path = str(tmp_path / "served.img")

    async def run():
        async with connected(fresh_db) as (_, client):
            await client.execute("INSERT INTO T0 VALUES (0, 0, 1, 1, 5)")
            summary = await client.snapshot(path)
            assert summary["kind"] == "snapshot"
            assert summary["bytes"] > 0
            # the server stays fully usable after the snapshot
            assert await client.ping()
            return sorted((await client.execute(SELECT_T0)).rows)

    live_rows = asyncio.run(run())
    restored = GhostDB.restore(path)
    assert sorted(
        tuple(r) for r in restored.execute(SELECT_T0).rows) == live_rows


def test_snapshot_requires_a_path(db):
    async def run():
        async with connected(db) as (_, client):
            with pytest.raises(ServiceError):
                await client._call({"op": "snapshot"})
            assert await client.ping()

    asyncio.run(run())


def test_a_failed_snapshot_write_is_a_persist_error(db, tmp_path):
    target = tmp_path / "taken"
    target.mkdir()

    async def run():
        async with connected(db) as (_, client):
            with pytest.raises(ServiceError) as exc:
                await client.snapshot(str(target))
            assert exc.value.error_type == "PersistError"
            assert await client.ping()

    asyncio.run(run())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_snapshot_refused_mid_compaction(fresh_db, tmp_path):
    """A bounded compaction job left half-done must make the server
    refuse the snapshot (PersistError over the wire), and the snapshot
    must succeed once the job is finished."""
    path = str(tmp_path / "refused.img")

    async def run():
        async with connected(fresh_db) as (_, client):
            await client.execute("DELETE FROM T0 WHERE T0.v1 = 1")
            progress = await client.compact("T0", max_steps=1)
            assert not progress.raw["done"]
            with pytest.raises(ServiceError) as exc:
                await client.snapshot(path)
            assert exc.value.error_type == "PersistError"
            while not (await client.compact("T0")).raw["done"]:
                pass
            summary = await client.snapshot(path)
            assert summary["pages"] > 0

    asyncio.run(run())
    GhostDB.restore(path)       # and the image is genuinely loadable


def test_served_image_answers_like_the_original(fresh_db, tmp_path):
    """A server booted from the durable image (the --image path) must
    answer the fig10 query identically -- rows *and* simulated costs --
    to a server over the never-snapshotted original."""
    sql = query_q(0.1)
    path = str(tmp_path / "twin.img")
    fresh_db.snapshot(path)
    restored = GhostDB.restore(path)

    async def served_answer(database):
        async with connected(database) as (_, client):
            result = await client.execute(sql)
            return sorted(result.rows), result.stats

    rows_a, stats_a = asyncio.run(served_answer(fresh_db))
    rows_b, stats_b = asyncio.run(served_answer(restored))
    assert rows_a == rows_b
    assert stats_a["total_s"] == stats_b["total_s"]
    assert stats_a["bytes_to_secure"] == stats_b["bytes_to_secure"]
    assert stats_a["bytes_to_untrusted"] == stats_b["bytes_to_untrusted"]


def test_hostile_length_prefix_drops_the_connection(db):
    """A peer announcing a frame beyond MAX_FRAME_BYTES is dropped
    immediately -- the server must never try to read the body."""
    async def run():
        async with connected(db) as (server, _):
            reader, writer = await asyncio.open_connection(server.host,
                                                           server.port)
            try:
                writer.write(struct.pack("!I", MAX_FRAME_BYTES + 1))
                await writer.drain()
                # server closed on us
                assert await asyncio.wait_for(reader.read(1), 5) == b""
            finally:
                writer.close()
            # and the listener itself survived the hostile peer
            async with await AsyncGhostClient.connect(
                    server.host, server.port) as client:
                assert await client.ping()

    asyncio.run(run())


def test_main_parses_image_flag(tmp_path, monkeypatch):
    """The CLI wires --image through GhostDB.restore into a server."""
    import repro.service.server as server_mod

    path = str(tmp_path / "cli.img")
    calls = {}

    def fake_restore(image_path, verify=False):
        calls["restore"] = (image_path, verify)
        return "DB"

    async def fake_serve(db, host, port):
        calls["serve"] = (db, host, port)

    monkeypatch.setattr(GhostDB, "restore", staticmethod(fake_restore))
    monkeypatch.setattr(server_mod, "_serve_image", fake_serve)
    server_mod.main(["--image", path, "--port", "4321", "--verify"])
    assert calls["restore"] == (path, True)
    assert calls["serve"] == ("DB", "127.0.0.1", 4321)
