"""Figure 16: cost decomposition of query Q on the medical data set.

Paper's claims: execution time tracks the root-table size (roughly 1/10
of the synthetic times at 1.3M vs 10M tuples), and "the cost of the
SJoin operator is dominant in all histograms" because the
Measurements/Patients fan-in is ~92.
"""


def test_fig16_decomposition_real(golden_table):
    rows = golden_table("fig16_decomposition_real")

    meaningful = [r for r in rows if r["total_excl_comm"] > 0.005]
    assert meaningful, "all bars too small to compare"
    for row in meaningful:
        ops = {k: row[k] for k in ("Merge", "SJoin", "Store", "Project")}
        assert max(ops, key=ops.get) == "SJoin", row["config"]
        assert row["SJoin"] > 0.4 * row["total_excl_comm"], row["config"]


def test_fig16_time_tracks_root_size(golden_table):
    """Real-data times are well below synthetic ones (root 1.3M vs 10M
    tuples at paper scale; both scaled by the same factor here)."""
    syn, real = golden_table("fig16_root_size_ratio")
    assert (syn["dataset"], real["dataset"]) == ("synthetic", "medical")
    assert real["total_excl_comm"] < syn["total_excl_comm"]
