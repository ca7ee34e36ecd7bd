"""Figure 9: Cross-Pre vs Cross-Post filtering.

Paper's claims: Cross-Pre wins at high selectivity and "becomes worse
for values of sV greater than 0.1", because beyond that point SJoin
touches every SKT page and pre-filtering loses its edge.
"""

from repro.workloads.queries import query_q


def test_fig09_crosspre_vs_crosspost(golden_table):
    rows = golden_table("fig09_crosspre_vs_crosspost")

    by_sv = {row["sv"]: row for row in rows}
    # high selectivity: pre wins
    assert (by_sv[0.001]["Cross-Pre-Filter"]
            <= by_sv[0.001]["Cross-Post-Filter"])
    # low selectivity: post wins (crossover at sv ~ 0.1)
    assert (by_sv[0.5]["Cross-Post-Filter"]
            <= by_sv[0.5]["Cross-Pre-Filter"])


def test_fig09_sjoin_saturation(synthetic_db):
    """Mechanism check: at sV=0.5 SJoin reads nearly every SKT page,
    at sV=0.001 only a fraction (the page-skipping effect)."""
    def sjoin_pages(sv):
        before = synthetic_db.token.ledger.counters["pages_read"]
        synthetic_db.execute(query_q(sv), vis_strategy="pre", cross=True)
        return synthetic_db.token.ledger.counters["pages_read"] - before

    low, high = sjoin_pages(0.001), sjoin_pages(0.5)
    assert high > 3 * low
