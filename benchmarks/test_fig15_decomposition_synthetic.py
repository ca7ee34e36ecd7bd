"""Figure 15: cost decomposition of query Q on the synthetic data set.

Paper's claims: PRE beats POST at sV=0.01 and 0.05 but loses at 0.20;
at sV=0.20 "the SJoin cost is the same in PRE20 and POST20 while the
Merge cost is much higher in PRE20 than in POST20".
"""


def test_fig15_decomposition_synthetic(golden_table):
    rows = golden_table("fig15_decomposition_synthetic")

    by = {row["config"]: row for row in rows}
    assert by["PRE1"]["total_excl_comm"] <= by["POST1"]["total_excl_comm"]
    assert (by["POST20"]["total_excl_comm"]
            <= by["PRE20"]["total_excl_comm"])
    # SJoin saturates: same cost for PRE20 and POST20 (within 20%)
    assert by["PRE20"]["SJoin"] <= by["POST20"]["SJoin"] * 1.2
    assert by["PRE20"]["SJoin"] >= by["POST20"]["SJoin"] * 0.8
    # Merge is what makes PRE20 lose
    assert by["PRE20"]["Merge"] > 2 * by["POST20"]["Merge"]
    # POST scans the whole SKT whatever sV is -- 782 page reads moving
    # 1 600 000 bytes, three times -- and a clock derived from counts
    # reports the same seconds for the same counts
    assert by["POST1"]["SJoin"] == by["POST5"]["SJoin"] \
        == by["POST20"]["SJoin"] == 0.09955
