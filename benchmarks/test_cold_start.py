"""Cold start: restoring a durable image vs rebuilding from rows.

The tentpole claim of the durable token image: a restart is
``GhostDB.restore()`` -- header + metadata only, page payloads left
mmap-backed -- and must be at least an order of magnitude faster than
rebuilding the same database from its source rows, while answering the
Figure 10 query mix bit-identically (rows *and* simulated costs).

The wall-clock table is printed, never committed: wall numbers are
``perfbench``'s job (``setup_s``, ``persist.restore_ms``,
``persist.snapshot_s``).
"""

import gc
import time

from repro.bench.experiments import build_bench_synthetic, format_table
from repro.core.ghostdb import GhostDB
from repro.workloads.queries import query_q

SELECTIVITIES = (0.001, 0.01, 0.1)

#: a restore must beat the from-rows build by at least this factor
MIN_SPEEDUP = 20.0

RESTORE_ROUNDS = 3


def _first_query_answers(db):
    out = []
    for sv in SELECTIVITIES:
        result = db.execute(query_q(sv))
        out.append((sorted(result.rows), result.stats.total_s))
    return out


def test_cold_start(tmp_path):
    t0 = time.perf_counter()
    db = build_bench_synthetic()
    build_s = time.perf_counter() - t0

    path = str(tmp_path / "bench.img")
    t0 = time.perf_counter()
    summary = db.snapshot(path)
    snapshot_s = time.perf_counter() - t0

    restored = None
    restore_times = []
    for _ in range(RESTORE_ROUNDS):
        # a real cold start is a fresh process; without this, freeing
        # the previous round's database and collecting the build-time
        # heap would be billed to the restore under measurement
        restored = None
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            restored = GhostDB.restore(path)
            restore_times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
    restore_s = sum(restore_times) / RESTORE_ROUNDS

    # the restored database answers the fig10 mix bit-identically
    assert _first_query_answers(restored) == _first_query_answers(db)

    speedup = build_s / restore_s if restore_s > 0 else float("inf")
    print("\n" + format_table([{
        "build_s": round(build_s, 3),
        "snapshot_s": round(snapshot_s, 3),
        "restore_s": round(restore_s, 4),
        "speedup": round(speedup, 1),
        "image_kb": round(summary["bytes"] / 1024, 1),
        "pages": summary["pages"],
    }], "Cold start: image restore vs from-rows rebuild (wall seconds)"))

    assert speedup >= MIN_SPEEDUP
