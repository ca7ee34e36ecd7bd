"""Cold start: restoring a durable image vs rebuilding from rows.

The tentpole claim of the durable token image: a restart is
``GhostDB.restore()`` -- header + metadata only, page payloads left
mmap-backed -- instead of a rebuild of the same database from its
source rows, while answering the Figure 10 query mix bit-identically
(rows *and* simulated costs).

What is asserted is what restore *does*, which no host can make flaky:
every page is still image-backed when ``restore`` returns, the restored
ledger equals the snapshotted one (zero replay), and the first queries
copy out exactly the pages the cache missed on.  The wall-clock table
is printed, never asserted or committed: wall numbers are
``perfbench``'s job (``setup_s``, ``persist.restore_ms``,
``persist.snapshot_s``).
"""

import gc
import time

from repro.bench.experiments import build_bench_synthetic, format_table
from repro.core.ghostdb import GhostDB
from repro.workloads.queries import query_q

SELECTIVITIES = (0.001, 0.01, 0.1)

RESTORE_ROUNDS = 3


def _answer(db, sv):
    result = db.execute(query_q(sv))
    return sorted(result.rows), result.stats


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

    # restore copied nothing and replayed nothing
    nand = restored.token.nand
    assert nand.image_backed_pages() == summary["pages"] > 0
    assert restored.token.ledger.snapshot() == db.token.ledger.snapshot()

    for sv in SELECTIVITIES:
        # the restored database answers the fig10 mix bit-identically ...
        assert _answer(restored, sv) == _answer(db, sv)
        # ... copying a page out of the image only on a cache miss; a
        # miss re-reads an already copied page only after an eviction
        cache = restored.token.store.cache_stats()
        touched = summary["pages"] - nand.image_backed_pages()
        assert 0 < touched <= cache["misses"]
        assert touched == cache["misses"] \
            or cache["cached_pages"] < cache["misses"]
    assert touched < summary["pages"]

    speedup = build_s / restore_s if restore_s > 0 else float("inf")
    print("\n" + format_table([{
        "build_s": round(build_s, 3),
        "snapshot_s": round(snapshot_s, 3),
        "restore_s": round(restore_s, 4),
        "speedup": round(speedup, 1),
        "image_kb": round(summary["bytes"] / 1024, 1),
        "pages": summary["pages"],
        "pages_touched": touched,
    }], "Cold start: image restore vs from-rows rebuild (wall seconds)"))
