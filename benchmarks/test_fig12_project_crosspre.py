"""Figure 12: projection algorithms under a Cross-Pre-Filter execution.

Paper's claims: "Project is 60% faster than Brute-Force when sV=0.1
and the gap increases with sV"; Project-NoBF pays extra MJoin
iterations for the irrelevant values sent by Untrusted.
"""


def test_fig12_project_crosspre(golden_table):
    rows = golden_table("fig12_project_crosspre")

    by_sv = {row["sv"]: row for row in rows}
    # Project beats Brute-Force at moderate/low selectivity and the gap
    # widens as sV grows
    assert by_sv[0.1]["Project"] < by_sv[0.1]["Brute-Force"]
    assert by_sv[0.5]["Project"] < by_sv[0.5]["Brute-Force"]
    gap_01 = by_sv[0.1]["Brute-Force"] - by_sv[0.1]["Project"]
    gap_05 = by_sv[0.5]["Brute-Force"] - by_sv[0.5]["Project"]
    assert gap_05 > gap_01
    # the Bloom optimization inside Project never hurts
    for row in rows:
        assert row["Project"] <= row["Project-NoBF"] * 1.05
