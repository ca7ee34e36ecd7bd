"""Ablation: end-to-end query cost vs secure RAM size.

The paper fixes RAM at 64 KB for security reasons; this sweep shows how
GhostDB's operators degrade gracefully (more Merge reductions, more
MJoin passes, smaller Blooms) rather than failing as RAM shrinks.
"""


def test_ablation_ram_size(golden_table):
    # (the driver itself fails if any RAM size returns different rows)
    rows = golden_table("ablation_ram_size")
    # the budget is honoured at every size
    for row in rows:
        assert row["ram_peak"] <= row["ram_bytes"]
    # shrinking RAM never helps
    times = [r["time_s"] for r in rows]
    assert times[-1] >= times[0] * 0.99
