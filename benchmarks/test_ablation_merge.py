"""Ablation: the Merge reduction phase under shrinking buffer budgets.

The paper's section 3.4 mandates one buffer per open sublist; when
sublists outnumber buffers, the smallest ones are pre-merged through
flash temporaries.  This bench quantifies the cost of that write-
intensive fallback as RAM shrinks.
"""


def test_ablation_merge_reduction(golden_table):
    rows = golden_table("ablation_merge_reduction")

    # all budgets produce the same result
    assert len({r["ids_out"] for r in rows}) == 1
    # ample RAM: pure streaming, no temp writes
    assert rows[0]["pages_written"] == 0
    assert rows[0]["reductions"] == 0
    # starved RAM: reduction kicks in and costs writes/time
    assert rows[-1]["reductions"] > 0
    assert rows[-1]["pages_written"] > 0
    assert rows[-1]["time_s"] > rows[0]["time_s"]
