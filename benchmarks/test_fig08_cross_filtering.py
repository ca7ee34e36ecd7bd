"""Figure 8: Filtering vs Cross-Filtering performance.

Paper's claim: "the Cross filtering optimization is beneficial whatever
the selectivity of the Visible selection.  The benefit becomes larger
as this selectivity decreases" (factor 1.8 at sV=0.01, 2.3 at sV=0.5
for Pre).
"""


def test_fig08_cross_filtering(golden_table):
    rows = golden_table("fig08_cross_filtering")

    for row in rows:
        assert row["Cross-Pre-Filter"] <= row["Pre-Filter"] * 1.05
        assert row["Cross-Post-Filter"] <= row["Post-Filter"] * 1.05
    # the Pre benefit grows as the selection gets less selective
    # (paper: factor 1.8 at sV=0.01, 2.3 at sV=0.5)
    by_sv = {row["sv"]: row for row in rows}
    gain_001 = (by_sv[0.01]["Pre-Filter"]
                / max(by_sv[0.01]["Cross-Pre-Filter"], 1e-9))
    gain_05 = (by_sv[0.5]["Pre-Filter"]
               / max(by_sv[0.5]["Cross-Pre-Filter"], 1e-9))
    assert gain_05 > gain_001
    assert gain_05 > 1.8 and gain_001 > 1.5
