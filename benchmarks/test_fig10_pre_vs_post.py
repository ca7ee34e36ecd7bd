"""Figure 10: Pre vs Post filtering when Cross does not apply.

Paper's claims: "Post-Filter becomes better than Pre-Filter for values
of sV higher than 0.05.  For sV=0.1, Post-Filter is already 30% better
than Pre-Filter."  NoFilter shows the cost of postponing the selection
to projection time regardless of selectivity.
"""


def test_fig10_pre_vs_post(golden_table):
    rows = golden_table("fig10_pre_vs_post")

    by_sv = {row["sv"]: row for row in rows}
    # Pre wins at very high selectivity
    assert by_sv[0.001]["Pre-Filter"] <= by_sv[0.001]["Post-Filter"]
    # Post wins once sV exceeds ~0.05-0.1 (paper: crossover at 0.05)
    assert by_sv[0.2]["Post-Filter"] < by_sv[0.2]["Pre-Filter"]
    assert by_sv[0.5]["Post-Filter"] < by_sv[0.5]["Pre-Filter"]
    # NoFilter's cost is roughly selectivity-insensitive on the SJ side
    # and never beats the better of Pre/Post by much at high selectivity
    assert by_sv[0.001]["NoFilter"] >= by_sv[0.001]["Pre-Filter"]
