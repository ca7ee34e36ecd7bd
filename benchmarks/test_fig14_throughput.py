"""Figure 14: impact of the communication throughput.

Paper's claim: "for this query, a communication throughput lesser than
1.3 MBps becomes the main bottleneck" -- time falls steeply up to
~1.3 MBps and flattens beyond.
"""


def test_fig14_throughput(golden_table):
    rows = golden_table("fig14_throughput")

    for series in ("Project1", "Project2", "Project3"):
        values = [row[series] for row in rows]
        # monotone non-increasing in throughput
        for a, b in zip(values, values[1:]):
            assert b <= a * 1.001
        # steep below ~1.3 MBps, flat above (the paper's knee)
        t_03 = values[0]
        t_13 = next(r[series] for r in rows
                    if r["throughput_mbps"] == 1.3)
        t_10 = values[-1]
        assert t_03 > 1.5 * t_13
        assert t_13 < 1.6 * t_10
    # more projected attributes -> more transferred bytes -> more time
    # in the throughput-bound region
    first = rows[0]
    assert first["Project3"] >= first["Project2"] >= first["Project1"]
