"""Figure 11: Post-Filtering alternatives.

Paper's claim: exact Post-Select (loading Vis IDs into RAM and making a
pass over the SJoin output per RAM-sized chunk) is dominated by the
Bloom-based Post-Filter -- "the figure justifies why we did not
consider Post-Select as a relevant strategy".
"""


def test_fig11_post_alternatives(golden_table):
    rows = golden_table("fig11_post_alternatives")

    # Bloom post-filter never loses badly to exact post-select, and at
    # low selectivity (big Vis ID lists -> many exact passes) it wins
    low_sel = [r for r in rows if r["sv"] >= 0.2]
    assert low_sel
    for row in low_sel:
        assert row["Post-Filter"] <= row["Post-Select"] * 1.05
    # Cross helps (or at least never hurts) both alternatives
    for row in rows:
        assert row["Cross-Post-Select"] <= row["Post-Select"] * 1.1
