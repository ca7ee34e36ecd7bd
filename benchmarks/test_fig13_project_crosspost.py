"""Figure 13: projection algorithms under a Cross-Post-Filter execution.

Same comparison as Figure 12 but the QEPSJ result now contains Bloom
false positives; the paper's point is "the insignificant impact of
false positives and the effectiveness of the Project algorithm".
"""

from repro.bench.experiments import fig12_project_crosspre, fig13_project_crosspost


def test_fig13_project_crosspost(golden_table):
    rows = golden_table("fig13_project_crosspost")

    by_sv = {row["sv"]: row for row in rows}
    assert by_sv[0.1]["Project"] < by_sv[0.1]["Brute-Force"]
    for row in rows:
        assert row["Project"] <= row["Project-NoBF"] * 1.05


def test_fig13_false_positive_impact_insignificant(synthetic_db):
    """Project under Post (with Bloom fps) costs about the same as under
    Pre (exact QEPSJ) -- the paper's headline for this figure."""
    pre = fig12_project_crosspre(synthetic_db, sv_grid=(0.1,))[0]
    post = fig13_project_crosspost(synthetic_db, sv_grid=(0.1,))[0]
    assert post["Project"] <= pre["Project"] * 1.5
