"""ORDER BY / LIMIT: oracle equivalence, RAM bounds, planner choice.

The contract under test: every ordering method returns rows identical
to the reference oracle (including tie-breaks and OFFSET/LIMIT), the
external sort's secure-RAM peak stays inside the token budget even
when tiny RAM forces multi-run spills, and ``EXPLAIN`` surfaces the
external-sort vs top-k-heap vs index-order decision with estimates.
"""

import random

import pytest

from repro.core.ghostdb import GhostDB
from repro.core.plan import SortMethod
from repro.errors import BindError, PlanError, SqlSyntaxError
from repro.hardware.token import TokenConfig
from repro.shard import ShardedGhostDB

ORDER_METHODS = ("external-sort", "top-k-heap", "index-order")


def build_small_db(token_config=None, n_children=40, n_parents=300,
                   shards=1):
    """A two-table database with an indexed hidden float column."""
    indexes = {"C": ("h",), "P": ("hp",)}
    db = (ShardedGhostDB(shards, config=token_config,
                         indexed_columns=indexes)
          if shards > 1 else
          GhostDB(config=token_config, indexed_columns=indexes))
    db.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
               "v int, hp float HIDDEN)")
    db.execute("CREATE TABLE C (id int, h int HIDDEN, w int)")
    db.load("C", [(i % 10, i % 7) for i in range(n_children)])
    db.load("P", [(i % n_children, (i * 37) % 100, (i * 13 % 97) / 3.0)
                  for i in range(n_parents)])
    db.build()
    return db


@pytest.fixture(scope="module")
def small_db():
    return build_small_db()


@pytest.fixture(scope="module")
def both_shapes(small_db):
    """One token and a 2-shard fleet: the statement front end
    (``execute`` / ``plan_query``) is shared, so its rejections are
    checked on both."""
    return (small_db, build_small_db(shards=2))


def assert_oracle(db, sql, **kwargs):
    """Execute and compare to the reference, order-sensitively."""
    result = db.execute(sql, **kwargs)
    _, expected = db.reference_query(sql)
    assert result.rows == expected, (
        f"{sql!r} with {kwargs}: {result.rows[:5]}... != {expected[:5]}..."
    )
    return result


# ---------------------------------------------------------------------------
# oracle equivalence across randomized clauses and every method
# ---------------------------------------------------------------------------

def test_randomized_order_clauses_match_oracle(small_db):
    """Random key sets, directions, limits and offsets, order-sensitive."""
    rng = random.Random(11)
    keys = ["P.v", "P.hp", "P.id", "C.w", "C.h"]
    for _ in range(12):
        n_keys = rng.randint(1, 2)
        order = ", ".join(
            f"{rng.choice(keys)} {rng.choice(['ASC', 'DESC'])}"
            for _ in range(n_keys)
        )
        clause = f"ORDER BY {order}"
        if rng.random() < 0.7:
            clause += f" LIMIT {rng.randint(0, 30)}"
            if rng.random() < 0.5:
                clause += f" OFFSET {rng.randint(0, 10)}"
        sql = ("SELECT P.id, P.v, C.w FROM P, C WHERE P.fk = C.id "
               f"AND P.v < {rng.randint(20, 95)} {clause}")
        assert_oracle(small_db, sql)


def test_every_method_returns_identical_rows(small_db):
    sql = ("SELECT P.id, P.hp FROM P WHERE P.v < 70 "
           "ORDER BY P.hp DESC LIMIT 9")
    _, expected = small_db.reference_query(sql)
    for method in ORDER_METHODS:
        result = small_db.execute(sql, order_method=method)
        assert result.rows == expected, method
        assert result.plan.order.method is SortMethod(method)
    small_db.token.ram.assert_all_freed()


def test_ties_break_by_anchor_id_in_both_directions(small_db):
    for direction in ("ASC", "DESC"):
        sql = f"SELECT P.id, C.h FROM P, C WHERE P.fk = C.id " \
              f"ORDER BY C.h {direction}"
        result = assert_oracle(small_db, sql)
        # within equal keys, anchor ids ascend (stable tie-break)
        last_key, last_id = None, -1
        for pid, key in result.rows:
            if key == last_key:
                assert pid > last_id
            last_key, last_id = key, pid


def test_order_by_column_not_projected_is_stripped(small_db):
    """Sort keys ride along internally and never reach the client."""
    sql = "SELECT P.id FROM P WHERE P.v < 40 ORDER BY P.hp DESC LIMIT 6"
    result = assert_oracle(small_db, sql)
    assert result.columns == ["P.id"]
    assert all(len(row) == 1 for row in result.rows)


def test_aggregate_order_by_group_key(small_db):
    sql = ("SELECT C.h, COUNT(*) FROM P, C WHERE P.fk = C.id "
           "GROUP BY C.h ORDER BY C.h DESC LIMIT 4")
    result = assert_oracle(small_db, sql)
    assert [r[0] for r in result.rows] == sorted(
        (r[0] for r in result.rows), reverse=True)


def test_limit_zero_and_offset_beyond_end(small_db):
    assert_oracle(small_db,
                  "SELECT P.id FROM P ORDER BY P.v LIMIT 0")
    assert_oracle(small_db,
                  "SELECT P.id FROM P WHERE P.v < 5 "
                  "ORDER BY P.v LIMIT 10 OFFSET 100000")


# ---------------------------------------------------------------------------
# secure-RAM accounting: tiny RAM must spill, never exceed the budget
# ---------------------------------------------------------------------------

def test_tiny_ram_forces_multi_run_spill_within_budget():
    cfg = TokenConfig(ram_bytes=16384)        # 8 page buffers
    db = GhostDB(config=cfg, indexed_columns={"C": ("h",)})
    db.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
               "v int)")
    db.execute("CREATE TABLE C (id int, h int HIDDEN, w int)")
    db.load("C", [(i % 10, i % 7) for i in range(50)])
    db.load("P", [(i % 50, (i * 37) % 1000) for i in range(3000)])
    db.build()

    sql = "SELECT P.id, P.v FROM P ORDER BY P.v"
    result = db.execute(sql)
    assert result.rows == db.reference_query(sql)[1]
    assert result.plan.order.method is SortMethod.EXTERNAL
    # the sort really spilled value-ordered runs to flash...
    assert result.stats.counters.get("sort_spill_runs", 0) >= 2
    # ...and the token budget held (SecureRam would have raised, but
    # assert the reported peak too -- it is the per-query window)
    assert 0 < result.stats.ram_peak <= cfg.ram_bytes
    assert result.stats.operator_s("Sort") > 0
    db.token.ram.assert_all_freed()


def test_reduction_pass_when_runs_exceed_buffers():
    """Enough data that spilled runs outnumber the merge's buffers."""
    cfg = TokenConfig(ram_bytes=12288)        # 6 page buffers
    db = GhostDB(config=cfg, indexed_columns={"C": ("h",)})
    db.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
               "v int)")
    db.execute("CREATE TABLE C (id int, h int HIDDEN, w int)")
    db.load("C", [(0, 0)])
    db.load("P", [(0, (i * 61) % 5000) for i in range(9000)])
    db.build()

    sql = "SELECT P.v FROM P ORDER BY P.v DESC"
    result = db.execute(sql)
    assert result.rows == db.reference_query(sql)[1]
    assert result.stats.counters.get("sort_spill_runs", 0) > \
        cfg.ram_bytes // 2048
    assert result.stats.counters.get("sort_reductions", 0) >= 1
    assert result.stats.ram_peak <= cfg.ram_bytes
    db.token.ram.assert_all_freed()


# ---------------------------------------------------------------------------
# oracle equivalence under interleaved DML
# ---------------------------------------------------------------------------

def test_order_by_tracks_interleaved_dml():
    db = build_small_db(n_children=20, n_parents=150)
    rng = random.Random(23)
    sqls = [
        "SELECT P.id, P.v FROM P ORDER BY P.v DESC, P.id LIMIT 11",
        "SELECT P.id FROM P WHERE P.v < 50 ORDER BY P.hp LIMIT 8",
        "SELECT P.id, C.w FROM P, C WHERE P.fk = C.id "
        "ORDER BY C.w DESC, P.id LIMIT 9 OFFSET 2",
    ]
    inserted = 0
    for step in range(6):
        if rng.random() < 0.6:
            db.execute("INSERT INTO P VALUES (?, ?, ?)",
                       params=(rng.randrange(20), rng.randrange(100),
                               rng.random() * 30))
            inserted += 1
        else:
            db.execute("DELETE FROM P WHERE v = ?",
                       params=(rng.randrange(100),))
        for sql in sqls:
            assert_oracle(db, sql)
    assert inserted > 0
    db.token.ram.assert_all_freed()


def test_index_order_gated_by_dml_and_restored_by_rebuild():
    db = build_small_db(n_children=20, n_parents=150)
    sql = "SELECT P.id FROM P ORDER BY P.hp LIMIT 5"
    # available before DML
    db.execute(sql, order_method="index-order")
    # an append to P breaks the index's value order: forcing must fail,
    # the auto plan must fall back, and rows must stay oracle-identical
    db.execute("INSERT INTO P VALUES (1, 10, 2.25)")
    with pytest.raises(PlanError):
        db.execute(sql, order_method="index-order")
    result = assert_oracle(db, sql)
    assert result.plan.order.method is not SortMethod.INDEX_ORDER
    # compaction folds the delta log back: available again
    db.compact("P")
    result = db.execute(sql, order_method="index-order")
    assert result.rows == db.reference_query(sql)[1]


# ---------------------------------------------------------------------------
# planner choice, EXPLAIN, plan cache
# ---------------------------------------------------------------------------

def test_explain_shows_order_choice_and_candidates(small_db):
    text = small_db.explain(
        "SELECT P.id FROM P WHERE P.v < 50 ORDER BY P.hp DESC LIMIT 5"
    )
    assert "order: by P.hp desc limit 5 -> " in text
    assert "order candidates" in text
    for method in ORDER_METHODS:
        assert method in text
    assert "<- chosen" in text


def test_small_limit_prefers_the_heap(small_db):
    plan = small_db.plan_query(
        "SELECT P.id FROM P ORDER BY P.v LIMIT 3")
    assert plan.order.method is SortMethod.TOP_K
    report = plan.order.report
    topk = next(c for c in report.candidates
                if c.method is SortMethod.TOP_K)
    assert not topk.infeasible and topk.chosen


def test_huge_limit_rules_out_the_heap():
    cfg = TokenConfig(ram_bytes=8192)
    db = build_small_db(token_config=cfg, n_children=10, n_parents=900)
    plan = db.plan_query("SELECT P.id FROM P ORDER BY P.v LIMIT 800")
    topk = next(c for c in plan.order.report.candidates
                if c.method is SortMethod.TOP_K)
    assert topk.infeasible
    assert plan.order.method is not SortMethod.TOP_K
    with pytest.raises(PlanError):
        db.plan_query("SELECT P.id FROM P ORDER BY P.v LIMIT 800",
                      order_method="top-k-heap")


def test_prepared_statement_with_order_by(small_db):
    stmt = small_db.prepare(
        "SELECT P.id, P.v FROM P WHERE P.v < ? "
        "ORDER BY P.v DESC LIMIT 4"
    )
    for bound in (30, 60, 90):
        result = stmt.execute((bound,))
        sql = (f"SELECT P.id, P.v FROM P WHERE P.v < {bound} "
               "ORDER BY P.v DESC LIMIT 4")
        assert result.rows == small_db.reference_query(sql)[1]
    assert stmt.executions == 3


def test_order_method_is_part_of_the_plan_cache_key(small_db):
    session = small_db.session()
    sql = "SELECT P.id FROM P WHERE P.v < 40 ORDER BY P.v LIMIT 5"
    a = session.query(sql, order_method="external-sort")
    b = session.query(sql, order_method="top-k-heap")
    assert a.plan.order.method is SortMethod.EXTERNAL
    assert b.plan.order.method is SortMethod.TOP_K
    assert a.rows == b.rows
    assert len(session.plan_cache) == 2
    # same knobs again: served from cache
    hits = session.plan_cache.hits
    session.query(sql, order_method="external-sort")
    assert session.plan_cache.hits == hits + 1


def test_query_many_with_order_template(small_db):
    batch = small_db.query_many(
        "SELECT P.id FROM P WHERE P.v < ? ORDER BY P.hp LIMIT 3",
        [(20,), (50,), (80,)],
    )
    assert len(batch) == 3
    for result, bound in zip(batch, (20, 50, 80)):
        sql = (f"SELECT P.id FROM P WHERE P.v < {bound} "
               "ORDER BY P.hp LIMIT 3")
        assert result.rows == small_db.reference_query(sql)[1]
    assert batch.plans_computed == 1


# ---------------------------------------------------------------------------
# SELECT DISTINCT (dedup before ORDER BY / LIMIT)
# ---------------------------------------------------------------------------

def test_distinct_dedups_and_matches_oracle(small_db):
    sql = "SELECT DISTINCT C.h FROM P, C WHERE P.fk = C.id"
    result = assert_oracle(small_db, sql)
    assert len(result.rows) == len(set(result.rows))
    # sanity: the non-distinct variant really had duplicates
    plain = small_db.execute("SELECT C.h FROM P, C WHERE P.fk = C.id")
    assert len(plain.rows) > len(result.rows)


def test_distinct_with_order_by_and_limit(small_db):
    sql = ("SELECT DISTINCT C.h, C.w FROM P, C WHERE P.fk = C.id "
           "ORDER BY C.h DESC, C.w LIMIT 5 OFFSET 1")
    result = assert_oracle(small_db, sql)
    assert len(result.rows) == len(set(result.rows))


def test_distinct_order_key_must_be_selected(both_shapes):
    for db in both_shapes:
        with pytest.raises(BindError):
            db.plan_query(
                "SELECT DISTINCT C.h FROM P, C WHERE P.fk = C.id "
                "ORDER BY C.w"
            )


# ---------------------------------------------------------------------------
# forced order methods are validated, never silently ignored
# ---------------------------------------------------------------------------

def test_order_method_rejected_without_order_by(small_db):
    # LIMIT-only queries truncate; forcing a sort method must error
    # rather than silently measuring the wrong path
    with pytest.raises(PlanError):
        small_db.execute("SELECT P.id FROM P LIMIT 3",
                         order_method="top-k-heap")
    with pytest.raises(PlanError):
        small_db.execute("SELECT P.id FROM P WHERE P.v < 10",
                         order_method="external-sort")
    # truncate itself is fine on a LIMIT-only statement
    result = small_db.execute("SELECT P.id FROM P LIMIT 3",
                              order_method="truncate")
    assert result.plan.order.method is SortMethod.TRUNCATE


def test_two_buffer_token_fails_at_plan_time_not_mid_sort():
    """A token too small to merge spilled runs must get a clear
    PlanError when planning, never RamExhausted mid-execution."""
    cfg = TokenConfig(ram_bytes=4096)         # 2 page buffers
    db = GhostDB(config=cfg, indexed_columns={"C": ()})
    db.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
               "v int)")
    db.execute("CREATE TABLE C (id int, h int HIDDEN, w int)")
    db.load("C", [(0, 0)])
    db.load("P", [(0, (i * 7) % 500) for i in range(600)])
    db.build()
    # spilling is unavoidable (600 records >> one chunk) and no other
    # method applies: planning must refuse
    with pytest.raises(PlanError, match="secure RAM"):
        db.execute("SELECT P.id, P.v FROM P ORDER BY P.v")
    # a small LIMIT still works: the heap fits
    sql = "SELECT P.id, P.v FROM P ORDER BY P.v LIMIT 5"
    assert db.execute(sql).rows == db.reference_query(sql)[1]
    db.token.ram.assert_all_freed()


def test_order_method_rejected_on_dml():
    for shards in (1, 2):
        db = build_small_db(n_children=10, n_parents=20, shards=shards)
        with pytest.raises(BindError):
            db.execute("INSERT INTO P VALUES (1, 2, 3.0)",
                       order_method="top-k-heap")
        with pytest.raises(BindError):
            db.execute("DELETE FROM P WHERE v = 999",
                       order_method="external-sort")


def test_external_estimate_prices_reductions_at_tiny_budgets():
    """The cost model must charge reduction passes even when the merge
    budget is below 3 buffers (2-way folds), where they dominate."""
    cfg = TokenConfig(ram_bytes=12288)        # 6 page buffers
    db = GhostDB(config=cfg, indexed_columns={"C": ("h",)})
    db.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
               "v int)")
    db.execute("CREATE TABLE C (id int, h int HIDDEN, w int)")
    db.load("C", [(0, 0)])
    db.load("P", [(0, (i * 61) % 5000) for i in range(9000)])
    db.build()
    plan = db.plan_query("SELECT P.v FROM P ORDER BY P.v")
    ext = next(c for c in plan.order.report.candidates
               if c.method is SortMethod.EXTERNAL)
    assert ext.n_runs > cfg.ram_bytes // 2048
    # runs exceed the merge budget, so the estimate must charge more
    # than the spill-once-read-once base: at least one extra full
    # read+write level (i.e. >= 2x the base's page and byte counts)
    total_words = 9000 * 3        # int key: 2 key words + 1 position
    base_pages = -(-total_words // (2048 // 4))
    counters = ext.cells.counters
    assert counters["pages_written"] >= 2 * base_pages
    assert counters["pages_read"] >= 2 * base_pages
    assert counters["bytes_from_ram"] >= 2 * total_words * 4
    assert counters["bytes_to_ram"] >= 2 * total_words * 4


# ---------------------------------------------------------------------------
# binder / parser rejections
# ---------------------------------------------------------------------------

def test_binder_rejects_order_key_outside_group_by(both_shapes):
    for db in both_shapes:
        with pytest.raises(BindError):
            db.plan_query(
                "SELECT C.h, COUNT(*) FROM C GROUP BY C.h ORDER BY C.w"
            )


def test_binder_rejects_unknown_order_column(both_shapes):
    for db in both_shapes:
        with pytest.raises(BindError):
            db.plan_query("SELECT P.id FROM P ORDER BY P.nope")


def test_parser_rejects_negative_and_fractional_bounds(small_db):
    with pytest.raises(SqlSyntaxError):
        small_db.plan_query("SELECT P.id FROM P LIMIT -3")
    with pytest.raises(SqlSyntaxError):
        small_db.plan_query("SELECT P.id FROM P LIMIT 2.5")
    with pytest.raises(SqlSyntaxError):
        small_db.plan_query("SELECT P.id FROM P ORDER BY")
