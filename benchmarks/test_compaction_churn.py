"""Compaction churn: sustained DML with interleaved bounded compaction.

The incremental compactor's contract under load: queries stay
oracle-identical while a compaction is half-done, the worst per-step
pause stays a small fraction of the whole fold (no stop-the-world),
and the debt actually drains once the job runs to completion.
"""


def test_compaction_churn(golden_table):
    rows = golden_table("compaction_churn")

    # the job ran to completion (the driver itself fails if any table
    # is left with compaction debt)
    final = rows[-1]
    assert final["batch"] == "final" and final["state"] in ("done", "clean")
    # the no-stop-the-world contract: the worst single-step pause stays
    # well below the total compaction work of the run
    total_compact_s = sum(r["compact_s"] for r in rows)
    worst_pause = max(r["max_pause_s"] for r in rows)
    assert worst_pause < total_compact_s / 2
    # interleaved queries keep flowing at every intermediate state
    assert all(r["queries_per_s"] > 0 for r in rows)
