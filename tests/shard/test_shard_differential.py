"""Differential harness: the fleet must be indistinguishable from one
token, row for row.

Every test drives an identically built single-token oracle and a
hash-partitioned fleet (1/2/3/4/5 shards, ``SHARD_COUNTS``) with the
same statements and asserts byte-identical results: same columns,
same rows, same row *order*.  The grids cover

* every fig10/fig12 strategy combination (the four Vis strategies x
  Cross on/off) and every projection mode on the paper's Query Q,
* the post-relational shapes -- DISTINCT, GROUP BY + aggregates,
  ORDER BY (both directions, with LIMIT/OFFSET) -- whose global
  recombination the gather implements,
* randomized interleaved DML (routed root inserts, broadcast inserts,
  root deletes, RESTRICT-checked deletes) with probes after every op,
* the per-channel security audit: each shard's outbound log must
  contain only public request kinds, on every shard separately.

Cost surfaces are asserted structurally (per-shard stats are reported
and sum/makespan-consistent), never for equality -- a fleet pays a
gather premium by design.
"""

import random

import pytest

from repro.workloads.queries import query_q, query_q_with_hidden_projection
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

from shard_helpers import SCALE, SHARD_COUNTS

STRATEGY_GRID = [
    (strategy, cross)
    for strategy in ("pre", "post", "post-select", "nofilter")
    for cross in (False, True)
]

PROJECTION_MODES = ("project", "project-nobf", "brute-force")

#: result shapes whose finishing stages run globally on the gather
#: side.  Shapes ordering by a non-anchor column force the external
#: sort on both twins: a child-column key does not totally order the
#: result, and the tie-break among equal keys is the only place where
#: a single token's INDEX_ORDER walk and a distributed merge may
#: legitimately differ.
SHAPE_QUERIES = [
    ("SELECT DISTINCT T0.v1 FROM T0 WHERE T0.v1 < 40", None),
    ("SELECT DISTINCT T0.v1, T0.h3 FROM T0 WHERE T0.v1 < 25", None),
    ("SELECT COUNT(*) FROM T0 WHERE T0.v1 < 300", None),
    ("SELECT T0.v1, COUNT(*), SUM(T0.v2), MIN(T0.v2), MAX(T0.v2) "
     "FROM T0 WHERE T0.v1 < 30 GROUP BY T0.v1", None),
    ("SELECT AVG(T0.v2) FROM T0 WHERE T0.v1 < 200", None),
    ("SELECT T0.id, T0.v1 FROM T0 WHERE T0.v1 < 120 "
     "ORDER BY T0.v1", None),
    ("SELECT T0.id, T0.v1 FROM T0 WHERE T0.v1 < 120 "
     "ORDER BY T0.v1 DESC LIMIT 13", None),
    ("SELECT T0.id, T0.v1, T0.v2 FROM T0 WHERE T0.v1 < 200 "
     "ORDER BY T0.v2 DESC, T0.v1 LIMIT 9 OFFSET 4", None),
    ("SELECT T0.id, T0.v1 FROM T0 WHERE T0.v1 < 100 "
     "ORDER BY T0.v1 LIMIT 0", None),
    ("SELECT T0.id, T1.v1 FROM T0, T1 WHERE T0.fk1 = T1.id "
     "AND T0.v1 < 60 ORDER BY T1.v1 LIMIT 11", "external-sort"),
    ("SELECT T0.v1, SUM(T0.v2) FROM T0 WHERE T0.v1 < 25 "
     "GROUP BY T0.v1 ORDER BY T0.v1 DESC LIMIT 6", None),
    ("SELECT DISTINCT T0.v1 FROM T0 WHERE T0.v1 < 50 "
     "ORDER BY T0.v1 DESC LIMIT 8", None),
]


def assert_same_result(oracle, fleet, sql, **kwargs):
    a = oracle.execute(sql, **kwargs)
    b = fleet.execute(sql, **kwargs)
    assert a.columns == b.columns, sql
    assert a.rows == b.rows, sql
    return a, b


def assert_fleet_stats_consistent(result):
    """Per-shard costs are reported and aggregate correctly."""
    shard_stats = getattr(result, "shard_stats", None)
    if shard_stats is None:
        return  # shards=1 degrades to a plain single-token GhostDB
    assert shard_stats, "fleet result must report per-shard stats"
    stats = result.stats
    assert stats.bytes_to_secure == \
        sum(s.bytes_to_secure for s in shard_stats)
    assert stats.bytes_to_untrusted == \
        sum(s.bytes_to_untrusted for s in shard_stats)
    # makespan model: the fleet is at least as slow as its slowest
    # shard (plus a merge premium), never the sum of all shards
    slowest = max(s.total_s for s in shard_stats)
    assert stats.total_s >= slowest
    assert stats.total_s <= sum(s.total_s for s in shard_stats) \
        + stats.by_operator.get("Gather", 0.0) + 1e-12
    assert stats.ram_peak == max(s.ram_peak for s in shard_stats)


@pytest.mark.parametrize("strategy,cross", STRATEGY_GRID)
def test_strategy_grid_matches_oracle(oracle, fleet, strategy, cross):
    for sv in (0.01, 0.1):
        _, b = assert_same_result(oracle, fleet, query_q(sv),
                                  vis_strategy=strategy, cross=cross)
        assert_fleet_stats_consistent(b)


@pytest.mark.parametrize("mode", PROJECTION_MODES)
def test_projection_modes_match_oracle(oracle, fleet, mode):
    for sv in (0.01, 0.1):
        sql = query_q_with_hidden_projection(sv)
        _, b = assert_same_result(oracle, fleet, sql,
                                  vis_strategy="pre", cross=True,
                                  projection=mode)
        assert_fleet_stats_consistent(b)


@pytest.mark.parametrize("sql,order_method", SHAPE_QUERIES)
def test_result_shapes_match_oracle(oracle, fleet, sql, order_method):
    kwargs = {"order_method": order_method} if order_method else {}
    _, b = assert_same_result(oracle, fleet, sql, **kwargs)
    assert_fleet_stats_consistent(b)


def test_non_root_queries_match_oracle(oracle, fleet):
    """Root-free statements run whole on one shard, bit-identically."""
    for sql in (
        "SELECT T1.id, T1.v1 FROM T1 WHERE T1.v1 < 80 AND T1.h1 = 2",
        "SELECT T2.id FROM T2 WHERE T2.v1 < 50 ORDER BY T2.v1 LIMIT 5",
        "SELECT T1.id, T12.v1 FROM T1, T12 WHERE T1.fk12 = T12.id "
        "AND T12.h2 = 3 AND T1.v1 < 100",
    ):
        a, b = assert_same_result(oracle, fleet, sql)
        # one shard, one fragment: the simulated cost matches the
        # single token's exactly (identical replica, identical plan)
        if hasattr(b, "shard_stats"):
            assert len(b.shard_stats) == 1
        assert b.stats.total_s == a.stats.total_s


def test_per_channel_audit_no_leak(fleet):
    """Each shard's own outbound channel carries only public kinds."""
    fleet.execute(query_q(0.1))
    fleet.execute(query_q_with_hidden_projection(0.05),
                  projection="brute-force")
    audit = fleet.audit_outbound()
    if hasattr(fleet, "n_shards"):
        assert set(audit) == set(range(fleet.n_shards))
        logs = audit.values()
    else:  # shards=1 degrades to a plain GhostDB with one channel
        logs = [audit]
    for log in logs:
        assert log, "every consulted channel is audited"
        assert {m.kind for m in log} <= {"query", "vis_request"}


def test_explain_shows_per_shard_costs(fleet):
    text = fleet.explain(query_q(0.1))
    if hasattr(fleet, "n_shards"):
        assert "scatter" in text and "gather merge" in text
        for k in range(fleet.n_shards):
            assert f"-- shard {k} --" in text
    else:
        assert "candidates" in text or "plan" in text


# ---------------------------------------------------------------------------
# randomized interleaved DML
# ---------------------------------------------------------------------------

DML_PROBES = [
    "SELECT T0.id, T0.v1, T0.v2 FROM T0 WHERE T0.v1 < 150",
    "SELECT T0.v1, COUNT(*) FROM T0 WHERE T0.v1 < 40 GROUP BY T0.v1",
    "SELECT T0.id, T0.v1 FROM T0 WHERE T0.v1 < 200 "
    "ORDER BY T0.v1 DESC LIMIT 17",
    "SELECT DISTINCT T0.v1 FROM T0 WHERE T0.v1 < 60",
    "SELECT T0.id, T1.v1 FROM T0, T1 WHERE T0.fk1 = T1.id "
    "AND T0.v1 < 50",
    "SELECT T2.id, T2.v1 FROM T2 WHERE T2.v1 < 70",
]


def random_op(db, rng, n1, n2):
    """One random DML statement; returns (kind, outcome)."""
    kind = rng.choice(("insert_root", "insert_root", "insert_leaf",
                       "delete_root", "delete_restrict"))
    try:
        if kind == "insert_root":
            rows = ", ".join(
                f"({rng.randrange(n1)}, {rng.randrange(n2)}, "
                f"{rng.randrange(1000)}, {rng.randrange(1000)}, "
                f"{rng.randrange(10)})"
                for _ in range(rng.randint(1, 4))
            )
            r = db.execute(
                f"INSERT INTO T0 (fk1, fk2, v1, v2, h3) VALUES {rows}")
        elif kind == "insert_leaf":
            r = db.execute(
                f"INSERT INTO T11 (v1, h1) VALUES "
                f"({rng.randrange(1000)}, {rng.randrange(10)})")
        elif kind == "delete_root":
            r = db.execute(
                f"DELETE FROM T0 WHERE T0.v1 = {rng.randrange(1000)}")
        else:
            # T2 is referenced by the root: usually RESTRICTed, and
            # the fleet must refuse before any shard tombstones
            r = db.execute(
                f"DELETE FROM T2 WHERE T2.v1 = {rng.randrange(1000)}")
        return kind, ("ok", r.rows_affected)
    except Exception as exc:
        return kind, ("err", type(exc).__name__)


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_random_interleaved_dml_matches_oracle(n_shards):
    cfg = SyntheticConfig(scale=SCALE, full_indexing=True)
    oracle = build_synthetic(cfg)
    fleet = build_synthetic(cfg, shards=n_shards)
    n1 = oracle.catalog.n_rows("T1")
    n2 = oracle.catalog.n_rows("T2")
    rng_a, rng_b = random.Random(90125), random.Random(90125)
    probe_rng = random.Random(5150)
    for step in range(14):
        kind_a, out_a = random_op(oracle, rng_a, n1, n2)
        kind_b, out_b = random_op(fleet, rng_b, n1, n2)
        assert kind_a == kind_b
        assert out_a == out_b, f"step {step} ({kind_a})"
        sql = probe_rng.choice(DML_PROBES)
        a = oracle.execute(sql)
        b = fleet.execute(sql)
        assert a.columns == b.columns
        assert a.rows == b.rows, f"step {step} after {kind_a}: {sql}"
    # fleet state equals the reconstructed-global ground truth too
    for sql in DML_PROBES:
        cols, expected = fleet.reference_query(sql)
        got = fleet.execute(sql)
        if "ORDER BY" not in sql:
            assert sorted(got.rows) == sorted(expected), sql
    # and compaction of the mutated root preserves equivalence
    oracle.compact("T0")
    fleet.compact("T0")
    for sql in DML_PROBES:
        a = oracle.execute(sql)
        b = fleet.execute(sql)
        assert a.rows == b.rows, f"post-compaction: {sql}"
