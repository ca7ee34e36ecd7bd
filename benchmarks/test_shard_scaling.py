"""Shard scaling: simulated throughput of the fig10/fig12 mix vs fleet size.

The scale-out claim: N tokens answer the root-anchored query mix
faster than one, because each shard's QEPSJ touches only its slice of
T0 and the shards run on disjoint hardware (the fleet's simulated time
is ``max`` over shards plus a priced gather merge, never the sum).
The driver runs the same query mix at 1/2/4/8 shards and reports
*simulated* queries-per-second -- wall q/s cannot improve in-process,
where shards execute sequentially under one interpreter -- and this
test asserts that simulated throughput improves monotonically from 1
to 4 shards.
"""


def test_shard_scaling(golden_table):
    # (the driver itself fails if the fleet sizes disagree on row counts)
    rows = golden_table("shard_scaling")

    # the tentpole claim: q/s improves monotonically 1 -> 2 -> 4
    by_shards = {r["shards"]: r["sim_qps"] for r in rows}
    assert by_shards[2] > by_shards[1]
    assert by_shards[4] > by_shards[2]
    # 8 shards must still beat a single token (merge overhead may
    # flatten the tail at this scale, but never below the baseline)
    assert by_shards[8] > by_shards[1]
