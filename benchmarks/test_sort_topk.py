"""Ordered retrieval: external sort vs top-k heap vs index order.

The ordering subsystem's decision surface: a bounded heap wins small
LIMITs (no flash I/O at all), the index-order scan serves rankings
without sorting while stopping early under LIMIT, and the external
merge sort is the always-available fallback that pays run spills.  The
cost-based pick must track the best method within a small factor.
"""


def test_sort_topk(golden_table):
    rows = golden_table("sort_topk")

    by_k = {row["k"]: row for row in rows}
    # a tiny LIMIT never pays flash I/O on the heap path (tolerance:
    # at bench scale neither method spills, so the times may be equal
    # up to float accumulation order)
    assert by_k[1]["top-k-heap"] <= by_k[1]["external-sort"] + 1e-9
    # without a LIMIT the heap path is unavailable
    assert by_k["all"]["top-k-heap"] == "-"
    # the cost-based pick stays within 25% of the best forced method
    for row in rows:
        best = min(v for m in ("external-sort", "top-k-heap",
                               "index-order")
                   if isinstance((v := row[m]), float))
        assert row["Auto"] <= best * 1.25 + 1e-9
