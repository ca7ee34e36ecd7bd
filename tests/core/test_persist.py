"""The durable token image: round trips, refusals and rejections.

The bit-identical contract: a restored database and a never-snapshotted
twin that performed THE SAME operation sequence must be
indistinguishable -- statistics sketches, storage report, audited
outbound channel, simulated elapsed time, query rows and query costs.
"""

import os
import struct
import subprocess
import sys

import pytest

import repro
from repro.core.ghostdb import GhostDB
from repro.errors import ImageError, PersistError
from repro.persist import IMAGE_MAGIC, image_info

from test_compaction_property import PROBES, build_db


def twin_dbs():
    """Two independently built, identical databases."""
    rows_c = [(i % 8, i % 6) for i in range(12)]
    rows_p = [(i % 12, i % 100, (i * 7 % 30) + 0.5) for i in range(80)]
    return build_db(rows_c, rows_p), build_db(rows_c, rows_p)


def assert_twins_identical(a, b):
    assert a.statistics() == b.statistics()
    assert a.storage_report() == b.storage_report()
    assert a.token.ledger.total_time_s() == b.token.ledger.total_time_s()
    assert a.token.ledger.counters == b.token.ledger.counters
    assert a.audit_outbound() == b.audit_outbound()
    for sql in PROBES:
        ra, rb = a.execute(sql), b.execute(sql)
        assert ra.rows == rb.rows, sql
        assert ra.stats.total_s == rb.stats.total_s, sql


def test_round_trip_restores_bit_identical_state(tmp_path):
    db, twin = twin_dbs()
    path = str(tmp_path / "db.img")
    summary = db.snapshot(path)
    assert summary["pages"] > 0 and summary["files"] > 0
    restored = GhostDB.restore(path, verify=True)
    assert_twins_identical(restored, twin)


def test_restored_db_evolves_identically(tmp_path):
    """Identical DML + bounded compaction + queries applied to the
    restored database and to its never-snapshotted twin stay
    bit-identical, including simulated costs."""
    db, twin = twin_dbs()
    path = str(tmp_path / "db.img")
    db.snapshot(path)
    restored = GhostDB.restore(path)
    for side in (restored, twin):
        side.execute("INSERT INTO P VALUES (3, 42, 7.5)")
        side.execute("DELETE FROM P WHERE P.v = 1")
        side.execute("INSERT INTO C VALUES (2, 4)")
        while not side.compact("P").done:
            pass
        while not side.compact("C").done:
            pass
    assert_twins_identical(restored, twin)


def test_resnapshot_of_a_restored_db(tmp_path):
    """Snapshotting a restored database (cold pages still mmap-backed)
    produces another fully equivalent image."""
    db, twin = twin_dbs()
    first = str(tmp_path / "first.img")
    second = str(tmp_path / "second.img")
    db.snapshot(first)
    restored = GhostDB.restore(first)
    restored.snapshot(second)
    again = GhostDB.restore(second, verify=True)
    assert_twins_identical(again, twin)


def test_snapshot_refused_mid_compaction(tmp_path):
    db, _ = twin_dbs()
    path = str(tmp_path / "db.img")
    db.execute("DELETE FROM P WHERE P.v < 50")
    progress = db.compact("P", max_steps=1, pages_per_step=1)
    assert not progress.done
    with pytest.raises(PersistError):
        db.snapshot(path)
    while not db.compact("P").done:
        pass
    db.snapshot(path)                   # quiescent again: allowed
    GhostDB.restore(path)


def test_snapshot_refused_before_build():
    db = GhostDB()
    db.execute("CREATE TABLE T (id int, v int)")
    with pytest.raises(PersistError):
        db.snapshot("/tmp/never-written.img")


def test_image_info_and_atomic_write(tmp_path):
    db, _ = twin_dbs()
    path = tmp_path / "db.img"
    summary = db.snapshot(str(path))
    info = image_info(str(path))
    assert info["bytes"] == summary["bytes"] == path.stat().st_size
    assert info["meta_bytes"] == summary["meta_bytes"]
    assert info["blob_bytes"] == summary["blob_bytes"]
    assert not (tmp_path / "db.img.tmp").exists()
    raw = path.read_bytes()
    assert raw.startswith(IMAGE_MAGIC)


def test_failed_write_leaves_no_temp_file(tmp_path):
    """A snapshot onto a directory used to raise a bare
    ``IsADirectoryError`` and leave ``<path>.tmp`` on disk."""
    db, _ = twin_dbs()
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(PersistError) as exc:
        db.snapshot(str(target))
    assert isinstance(exc.value.__cause__, OSError)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def _flip_byte(path, offset):
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0xFF
    path.write_bytes(bytes(raw))


def test_torn_and_corrupt_images_are_rejected(tmp_path):
    db, _ = twin_dbs()
    path = tmp_path / "db.img"
    db.snapshot(str(path))
    info = image_info(str(path))
    header_size = info["bytes"] - info["meta_bytes"] - info["blob_bytes"]
    raw = path.read_bytes()

    # truncated (torn) write
    torn = tmp_path / "torn.img"
    torn.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ImageError):
        GhostDB.restore(str(torn))
    with pytest.raises(ImageError):
        image_info(str(torn))

    # too short to even hold the header
    stub = tmp_path / "stub.img"
    stub.write_bytes(raw[:10])
    with pytest.raises(ImageError):
        GhostDB.restore(str(stub))

    # wrong magic
    bad_magic = tmp_path / "magic.img"
    bad_magic.write_bytes(b"NOTANIMG" + raw[8:])
    with pytest.raises(ImageError):
        GhostDB.restore(str(bad_magic))

    # unsupported version
    bad_version = tmp_path / "version.img"
    bad_version.write_bytes(
        raw[:8] + struct.pack("!I", 999) + raw[12:])
    with pytest.raises(ImageError):
        GhostDB.restore(str(bad_version))

    # one flipped metadata byte: the eager meta checksum catches it
    bad_meta = tmp_path / "meta.img"
    bad_meta.write_bytes(raw)
    _flip_byte(bad_meta, header_size + 2)
    with pytest.raises(ImageError):
        GhostDB.restore(str(bad_meta))

    # one flipped payload byte: caught by restore(verify=True)
    bad_blob = tmp_path / "blob.img"
    bad_blob.write_bytes(raw)
    _flip_byte(bad_blob, header_size + info["meta_bytes"] + 2)
    with pytest.raises(ImageError):
        GhostDB.restore(str(bad_blob), verify=True)


# ---------------------------------------------------------------------------
# the image is a function of the statements, not of the process
# ---------------------------------------------------------------------------

_DETERMINISM_SCRIPT = """
import sys
from repro.workloads.synthetic import SyntheticConfig, build_synthetic
db = build_synthetic(SyntheticConfig(scale=0.0005, full_indexing=True))
db.execute("INSERT INTO T0 VALUES (1, 2, 3, 4, 5)")
db.execute("DELETE FROM T0 WHERE T0.v1 = 3")
db.compact("T0")
db.execute("SELECT T0.id, T1.id, T12.id, T1.v1 FROM T0, T1, T12 "
           "WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id "
           "AND T1.v1 < 200 AND T12.h2 = 2")
db.snapshot(sys.argv[1])
"""


def test_image_bytes_do_not_depend_on_the_process(tmp_path):
    """Regression: an SJoin result freed its temp files in ``set``
    order, i.e. by object address, so the FTL free list -- and the
    image sha -- differed between two processes that ran the same
    statements."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    images = []
    for seed in ("1", "2"):
        path = tmp_path / f"seed{seed}.img"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", _DETERMINISM_SCRIPT,
                        str(path)], check=True, env=env, timeout=120)
        images.append(path.read_bytes())
    assert images[0] == images[1]
