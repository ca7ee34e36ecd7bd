"""Incremental DML through the unified ``db.execute()`` entry point.

Covers the statement dispatch, append-only index maintenance (delta
logs + fk deltas), tombstone semantics, RESTRICT integrity, cost
scaling (an insert is O(appended bytes), not O(table size)), and
interleaved INSERT/DELETE/SELECT equivalence against the reference
oracle -- including a randomized interleaving in the style of
``test_random_equivalence.py``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DmlResult, GhostDB
from repro.errors import BindError, GhostDBError, StorageError
from repro.shard import ShardedGhostDB


def make_db(shards=1):
    db = ShardedGhostDB(shards) if shards > 1 else GhostDB()
    db.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
               "v int, h int HIDDEN)")
    db.execute("CREATE TABLE C (id int, v int, h int HIDDEN)")
    db.execute("INSERT INTO C VALUES " +
               ", ".join(f"({i}, {i % 2})" for i in range(10)))
    db.execute("INSERT INTO P VALUES " +
               ", ".join(f"({i % 10}, {i}, {i % 4})" for i in range(50)))
    db.build()
    return db


def check(db, sql, **kwargs):
    result = db.execute(sql, **kwargs)
    _, expected = db.reference_query(sql)
    assert sorted(result.rows) == sorted(expected), sql
    return result


# ---------------------------------------------------------------------------
# execute() dispatch
# ---------------------------------------------------------------------------

def test_execute_dispatches_all_statement_kinds():
    db = make_db()
    select = db.execute("SELECT C.id FROM C WHERE C.h = 1")
    assert select.rows
    insert = db.execute("INSERT INTO C VALUES (42, 1)")
    assert isinstance(insert, DmlResult)
    assert (insert.statement, insert.table, insert.rows_affected) == \
        ("insert", "C", 1)
    delete = db.execute("DELETE FROM C WHERE C.v = 42")
    assert (delete.statement, delete.rows_affected) == ("delete", 1)


def test_execute_runs_the_full_lifecycle_without_legacy_api():
    db = GhostDB()
    assert db.execute("CREATE TABLE T (id int, v int, h int HIDDEN)") \
        is None
    assert db.execute("INSERT INTO T VALUES (1, 2), (3, 4)") is None
    db.build()
    result = db.execute("SELECT T.id, T.h FROM T WHERE T.v = 1")
    assert result.rows == [(0, 2)]


def test_execute_with_params_everywhere():
    db = make_db()
    db.execute("INSERT INTO C (v, h) VALUES (?, ?)", params=(77, 1))
    check(db, "SELECT C.id FROM C WHERE C.v = 77")
    deleted = db.execute("DELETE FROM C WHERE C.v = ?", params=(77,))
    assert deleted.rows_affected == 1
    result = db.execute("SELECT C.id FROM C WHERE C.v = ?", params=(77,))
    assert result.rows == []


def test_unbound_dml_placeholders_rejected():
    # one front end serves a token and a fleet: check both shapes
    for shards in (1, 2):
        db = make_db(shards)
        with pytest.raises(BindError):
            db.execute("INSERT INTO C VALUES (?, 1)")
        with pytest.raises(BindError):
            db.execute("DELETE FROM C WHERE C.v = ?")


def test_ddl_takes_no_parameters():
    for shards in (1, 2):
        db = ShardedGhostDB(shards) if shards > 1 else GhostDB()
        with pytest.raises(BindError):
            db.execute("CREATE TABLE T (id int, v int)", params=(1,))
        # the rejected statement registered nothing
        db.execute("CREATE TABLE T (id int, v int)")
        db.execute("INSERT INTO T VALUES (4)")
        db.build()
        assert db.execute("SELECT T.v FROM T").rows == [(4,)]


def test_delete_before_build_rejected():
    db = GhostDB()
    db.execute("CREATE TABLE T (id int, v int)")
    with pytest.raises(GhostDBError):
        db.execute("DELETE FROM T WHERE T.v = 1")


# ---------------------------------------------------------------------------
# correctness after DML
# ---------------------------------------------------------------------------

JOIN_SQL = ("SELECT P.id, C.h FROM P, C WHERE P.fk = C.id "
            "AND C.h = 1 AND P.v < 30")


def test_insert_visible_after_build_without_rebuild():
    db = make_db()
    db.execute("INSERT INTO C VALUES (5, 1)")
    db.execute("INSERT INTO P VALUES (10, 7, 1), (10, 8, 3)")
    check(db, JOIN_SQL)
    check(db, "SELECT C.id, C.v FROM C WHERE C.h = 1")
    check(db, "SELECT P.id FROM P, C WHERE P.fk = C.id AND C.v = 5")
    check(db, "SELECT P.id, P.v FROM P")


def test_insert_reaches_every_strategy_and_mode():
    db = make_db()
    db.execute("INSERT INTO C VALUES (3, 1), (8, 0)")
    db.execute("INSERT INTO P VALUES (10, 3, 1), (11, 60, 2)")
    sql = ("SELECT P.id, P.v, C.h FROM P, C WHERE P.fk = C.id "
           "AND C.v <= 8 AND P.h >= 1")
    _, expected = db.reference_query(sql)
    for strategy in ("pre", "post", "post-select", "nofilter", None):
        for mode in ("project", "project-nobf", "brute-force"):
            result = db.execute(sql, vis_strategy=strategy,
                                projection=mode)
            assert sorted(result.rows) == sorted(expected), (strategy,
                                                             mode)
    assert db.token.ram.used == 0


def test_delete_hides_rows_from_all_queries():
    db = make_db()
    db.execute("DELETE FROM P WHERE P.v >= 25")
    check(db, JOIN_SQL)
    check(db, "SELECT P.id, P.v FROM P")
    check(db, "SELECT COUNT(*) FROM P")
    agg = check(db, "SELECT COUNT(*), P.h FROM P GROUP BY P.h")
    assert agg.rows


def test_delete_everything_then_reinsert():
    db = make_db()
    db.execute("DELETE FROM P")
    assert db.execute("SELECT P.id FROM P").rows == []
    db.execute("INSERT INTO P VALUES (0, 123, 2)")
    result = check(db, "SELECT P.id, P.v FROM P")
    assert result.rows == [(50, 123)]


def test_restrict_blocks_referenced_child_delete():
    db = make_db()
    with pytest.raises(GhostDBError):
        db.execute("DELETE FROM C WHERE C.v = 3")
    # freeing the parents first makes the same delete legal
    db.execute("DELETE FROM P WHERE P.v IN (3, 13, 23, 33, 43)")
    assert db.execute("DELETE FROM C WHERE C.v = 3").rows_affected == 1
    check(db, "SELECT C.id, C.v FROM C")


def test_insert_fk_to_deleted_row_rejected():
    db = make_db()
    db.execute("DELETE FROM P WHERE P.v IN (9, 19, 29, 39, 49)")
    db.execute("DELETE FROM C WHERE C.v = 9")
    with pytest.raises(GhostDBError):
        db.execute("INSERT INTO P VALUES (9, 1, 1)")
    with pytest.raises(StorageError):
        db.execute("INSERT INTO P VALUES (999, 1, 1)")


def test_rebuild_compacts_tombstones_and_remaps_fks():
    db = make_db()
    db.execute("INSERT INTO C VALUES (77, 1)")
    db.execute("INSERT INTO P VALUES (10, 70, 3)")
    db.execute("DELETE FROM P WHERE P.v IN (0, 10, 20, 30, 40)")
    db.execute("DELETE FROM C WHERE C.v = 0")
    before = sorted(db.execute("SELECT P.v, C.v FROM P, C "
                               "WHERE P.fk = C.id").rows)
    db.compact("C")                  # renumbers C, so it folds P too
    db.compact("P")
    assert db.catalog.n_rows("P") == 46          # compacted
    assert not any(db.catalog.tombstones.values())
    after = check(db, "SELECT P.v, C.v FROM P, C WHERE P.fk = C.id")
    assert sorted(after.rows) == before


# ---------------------------------------------------------------------------
# cost discipline
# ---------------------------------------------------------------------------

def test_insert_cost_scales_with_row_not_table():
    """Acceptance: the insert's reported cost is O(appended bytes)."""
    def one_insert_cost(n_rows):
        db = GhostDB()
        db.execute("CREATE TABLE T (id int, v int, h int HIDDEN)")
        db.execute("INSERT INTO T VALUES " +
                   ", ".join(f"({i % 50}, {i % 9})" for i in range(n_rows)))
        db.build()
        result = db.execute("INSERT INTO T VALUES (1, 2)")
        return result.stats.total_s

    small, big = one_insert_cost(1000), one_insert_cost(16000)
    # a table-size-dependent insert would differ ~16x; the append
    # path touches one tail page regardless of cardinality
    assert big < small * 2

    db = GhostDB()
    db.execute("CREATE TABLE T (id int, v int, h int HIDDEN)")
    db.execute("INSERT INTO T VALUES " +
               ", ".join(f"({i % 50}, {i % 9})" for i in range(16000)))
    db.build()
    insert = db.execute("INSERT INTO T VALUES (1, 2)")
    scan = db.execute("SELECT COUNT(*) FROM T")
    assert insert.stats.total_s < scan.stats.total_s / 10


def test_dml_stats_report_channel_traffic():
    db = make_db()
    result = db.execute("INSERT INTO C VALUES (9, 1)")
    assert result.stats.total_s > 0
    assert result.stats.bytes_to_untrusted > 0   # statement + vis half
    assert result.stats.bytes_to_secure > 0      # hidden provisioning
    assert result.stats.result_rows == 1


# ---------------------------------------------------------------------------
# interleaved / randomized equivalence (oracle property)
# ---------------------------------------------------------------------------

_OPS = ("=", "<", "<=", ">", ">=")


def _random_select(rng):
    preds = []
    for table, col, vis in (("P", "v", True), ("P", "h", False),
                            ("C", "v", True), ("C", "h", False)):
        if rng.random() < 0.5:
            op = rng.choice(_OPS)
            bound = rng.randrange(60 if vis else 5)
            preds.append(f"{table}.{col} {op} {bound}")
    proj = rng.sample(["P.id", "C.id", "P.v", "C.h"],
                      k=rng.randrange(1, 4))
    where = " AND ".join(["P.fk = C.id"] + preds)
    return f"SELECT {', '.join(proj)} FROM P, C WHERE {where}"


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_property_interleaved_dml_matches_oracle(seed):
    rng = random.Random(seed)
    db = make_db()
    n_c = 10
    for step in range(12):
        roll = rng.random()
        if roll < 0.35:
            live_c = [i for i in range(n_c)
                      if db.catalog.is_live("C", i)]
            db.execute(
                "INSERT INTO P VALUES "
                f"({rng.choice(live_c)}, {rng.randrange(60)}, "
                f"{rng.randrange(5)})"
            )
        elif roll < 0.55:
            db.execute(
                f"INSERT INTO C VALUES ({rng.randrange(60)}, "
                f"{rng.randrange(5)})"
            )
            n_c += 1
        elif roll < 0.75:
            db.execute(
                f"DELETE FROM P WHERE P.v = {rng.randrange(60)}"
            )
        sql = _random_select(rng)
        strategy = rng.choice(["pre", "post", "post-select", "nofilter",
                               None])
        mode = rng.choice(["project", "project-nobf", "brute-force"])
        result = db.execute(sql, vis_strategy=strategy, projection=mode)
        _, expected = db.reference_query(sql)
        assert sorted(result.rows) == sorted(expected), (seed, step, sql,
                                                         strategy, mode)
        assert db.token.ram.used == 0
