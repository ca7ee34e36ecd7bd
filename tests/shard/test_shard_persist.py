"""Fleet persistence: the whole fleet in one image file, bit-identical.

Extends the single-token snapshot/restore guarantees to the fleet:
the restored fleet must answer every probe with the same rows *and*
the same simulated costs as a never-snapshotted twin driven through
the identical history, each shard's statistics / storage report /
cost ledger / audit log must match its twin shard exactly, and the
snapshot must refuse mid-compaction on any shard.
"""

import os

import pytest

from repro.core.ghostdb import GhostDB
from repro.errors import PersistError
from repro.persist import image_info
from repro.workloads.queries import query_q
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

from shard_helpers import SCALE

N_SHARDS = 3

PROBES = [
    query_q(0.05),
    "SELECT T0.id, T0.v1 FROM T0 WHERE T0.v1 < 150 "
    "ORDER BY T0.v1 DESC LIMIT 11",
    "SELECT T0.v1, COUNT(*) FROM T0 WHERE T0.v1 < 30 GROUP BY T0.v1",
    "SELECT DISTINCT T0.v1 FROM T0 WHERE T0.v1 < 40",
    "SELECT T1.id, T1.v1 FROM T1 WHERE T1.v1 < 60 AND T1.h1 = 1",
]

HISTORY = [
    "INSERT INTO T0 (fk1, fk2, v1, v2, h3) VALUES (1, 2, 3, 4, 5), "
    "(4, 5, 6, 7, 8)",
    "INSERT INTO T11 (v1, h1) VALUES (123, 4)",
    "DELETE FROM T0 WHERE T0.v1 = 17",
]


def build_fleet():
    return build_synthetic(SyntheticConfig(scale=SCALE,
                                           full_indexing=True),
                           shards=N_SHARDS)


def assert_fleet_twins_identical(a, b):
    assert a.n_shards == b.n_shards
    assert a._root_maps == b._root_maps
    assert a._next_root_gid == b._next_root_gid
    assert a.statistics() == b.statistics()
    assert a.storage_report() == b.storage_report()
    assert a.audit_outbound() == b.audit_outbound()
    for sa, sb in zip(a.shards, b.shards):
        assert sa.token.ledger.total_time_s() == \
            sb.token.ledger.total_time_s()
        assert sa.token.ledger.counters == sb.token.ledger.counters
    for sql in PROBES:
        ra, rb = a.execute(sql), b.execute(sql)
        assert ra.rows == rb.rows, sql
        assert ra.stats.total_s == rb.stats.total_s, sql
        assert [s.total_s for s in ra.shard_stats] == \
            [s.total_s for s in rb.shard_stats], sql


def test_fleet_round_trip_is_bit_identical(tmp_path):
    db, twin = build_fleet(), build_fleet()
    for sql in HISTORY:
        db.execute(sql)
        twin.execute(sql)
    path = str(tmp_path / "fleet.img")
    summary = db.snapshot(path)
    assert summary["shards"] == N_SHARDS
    assert summary["bytes"] == image_info(path)["bytes"]
    assert summary["blob_bytes"] == image_info(path)["blob_bytes"] > 0
    assert os.listdir(tmp_path) == ["fleet.img"]     # one file, no shards

    restored = GhostDB.restore(path, verify=True)
    assert type(restored).__name__ == "ShardedGhostDB"
    assert_fleet_twins_identical(restored, twin)
    for shard in restored.shards:
        shard.token.ram.assert_all_freed()


def test_restored_fleet_evolves_identically(tmp_path):
    """DML + root compaction applied after restore stays identical."""
    db, twin = build_fleet(), build_fleet()
    path = str(tmp_path / "fleet.img")
    db.snapshot(path)
    restored = GhostDB.restore(path)
    for side in (restored, twin):
        for sql in HISTORY:
            side.execute(sql)
        side.compact("T0")
        side.compact("T11")
    assert_fleet_twins_identical(restored, twin)


def test_snapshot_refuses_mid_compaction(tmp_path):
    db = build_fleet()
    db.execute("DELETE FROM T0 WHERE T0.v1 = 3")
    # start a bounded compaction on ONE shard only: the whole fleet
    # snapshot must refuse (the root maps would not agree with that
    # shard's in-flight id space)
    prog = db.shards[1].compact("T0", max_steps=1)
    assert not prog.done
    with pytest.raises(PersistError):
        db.snapshot(str(tmp_path / "fleet.img"))
    while not db.shards[1].compact("T0").done:
        pass


def test_single_image_magic_still_restores_plain_db(tmp_path):
    """Restore hands back whatever the image holds: here one token."""
    single = build_synthetic(SyntheticConfig(scale=SCALE,
                                             full_indexing=True))
    path = str(tmp_path / "db.img")
    single.snapshot(path)
    restored = GhostDB.restore(path, verify=True)
    assert type(restored).__name__ == "GhostDB"
    sql = PROBES[0]
    assert restored.execute(sql).rows == single.execute(sql).rows
