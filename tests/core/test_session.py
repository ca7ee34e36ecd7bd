"""Tests for the query-service layer: prepared statements, the LRU
plan cache with compaction / re-provisioning invalidation, batched execution, and the
regression fixes riding along (per-query ``ram_peak``, reserve-aware
merge reduction is covered in ``test_merge_operator``)."""

import pytest

from repro import GhostDB
from repro.core.session import plan_key
from repro.errors import BindError, GhostDBError
from repro.service.loadgen import TEMPLATE_FIG10, TEMPLATE_FIG12
from repro.shard import ShardedGhostDB
from repro.sql.binder import Binder
from repro.workloads.synthetic import (SyntheticConfig, build_synthetic,
                                       sv_to_v1_bound)


def make_db(shards=1):
    db = ShardedGhostDB(shards) if shards > 1 else GhostDB()
    db.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
                   "v int, h int HIDDEN)")
    db.execute("CREATE TABLE C (id int, v int, h int HIDDEN)")
    db.load("C", [(i, i % 2) for i in range(10)])
    db.load("P", [(i % 10, i, i % 4) for i in range(50)])
    db.build()
    return db


TEMPLATE = ("SELECT P.id FROM P, C WHERE P.fk = C.id "
            "AND C.h = ? AND P.v < ?")


def concrete(h, v):
    return ("SELECT P.id FROM P, C WHERE P.fk = C.id "
            f"AND C.h = {h} AND P.v < {v}")


# ---------------------------------------------------------------------------
# prepared statements
# ---------------------------------------------------------------------------

def test_prepared_results_match_reference_across_params():
    db = make_db()
    stmt = db.prepare(TEMPLATE)
    assert stmt.param_count == 2
    for params in [(0, 10), (1, 30), (0, 50), (1, 1)]:
        result = stmt.execute(params)
        _, expected = db.reference_query(concrete(*params))
        assert sorted(result.rows) == sorted(expected)


def test_repeated_template_plans_at_most_once():
    """Acceptance: >= 100 executions of one template plan exactly once
    and match the reference row for row."""
    db = make_db()
    param_sets = [(h, v) for h in (0, 1) for v in range(5, 55)]
    assert len(param_sets) == 100
    planned_before = db.planner.plans_built
    batch = db.query_many(TEMPLATE, param_sets)
    assert db.planner.plans_built - planned_before == 1
    assert batch.plans_computed == 1
    assert len(batch) == 100
    for result, params in zip(batch, param_sets):
        _, expected = db.reference_query(concrete(*params))
        assert sorted(result.rows) == sorted(expected)


def test_prepared_between_and_in_placeholders():
    db = make_db()
    stmt = db.prepare("SELECT P.id FROM P WHERE P.v BETWEEN ? AND ? "
                      "AND P.h IN (?, ?)")
    result = stmt.execute((10, 30, 1, 2))
    _, expected = db.reference_query(
        "SELECT P.id FROM P WHERE P.v BETWEEN 10 AND 30 "
        "AND P.h IN (1, 2)")
    assert sorted(result.rows) == sorted(expected)


def test_param_count_mismatch_raises():
    db = make_db()
    stmt = db.prepare(TEMPLATE)
    with pytest.raises(BindError):
        stmt.execute((1,))
    with pytest.raises(BindError):
        stmt.execute((1, 2, 3))


def test_unbound_placeholders_rejected_outside_prepare():
    db = make_db()
    with pytest.raises(BindError):
        db.execute(TEMPLATE)
    with pytest.raises(BindError):
        db.plan_query(TEMPLATE)


def test_session_query_with_params():
    db = make_db()
    session = db.session()
    result = session.query(TEMPLATE, params=(1, 30))
    _, expected = db.reference_query(concrete(1, 30))
    assert sorted(result.rows) == sorted(expected)


# ---------------------------------------------------------------------------
# plan cache
# ---------------------------------------------------------------------------

def test_plan_cache_hit_miss_counting():
    db = make_db()
    session = db.session()
    sql = "SELECT C.id FROM C WHERE C.h = 1"
    session.query(sql)
    assert (session.plan_cache.hits, session.plan_cache.misses) == (0, 1)
    session.query(sql)
    assert (session.plan_cache.hits, session.plan_cache.misses) == (1, 1)


def test_plan_cache_key_normalizes_sql_text():
    db = make_db()
    session = db.session()
    session.query("SELECT C.id FROM C WHERE C.h = 1")
    session.query("select   C.id  FROM C  where C.h = 1 ;")
    assert session.plan_cache.hits == 1
    assert len(session.plan_cache) == 1


def test_plan_cache_key_separates_strategy_knobs():
    db = make_db()
    sql = "SELECT P.id FROM P, C WHERE P.fk = C.id AND C.v = 1"
    assert plan_key(sql, "pre", None, "project") != \
        plan_key(sql, "post", None, "project")
    assert plan_key(sql, None, None, "project") != \
        plan_key(sql, None, None, "brute-force")
    session = db.session()
    session.query(sql, vis_strategy="pre")
    session.query(sql, vis_strategy="post")
    assert session.plan_cache.misses == 2
    assert len(session.plan_cache) == 2


def test_plan_cache_lru_eviction():
    """One LRU of statements: a plan lookup refreshes its statement,
    and past capacity the least recently used one is evicted."""
    session = make_db().session()
    session.plan_cache.capacity = 2
    sqls = [f"SELECT C.id FROM C WHERE C.v = {i}" for i in (1, 2, 3)]
    k1, k2, k3 = (plan_key(sql, None, None, "project") for sql in sqls)
    session.query(sqls[0])
    held = session.prepare(sqls[1])
    held.execute()
    session.query(sqls[0])          # k1 is now most recent
    session.query(sqls[2])          # evicts k2
    assert session.plan_cache.evictions == 1
    assert k2 not in session.plan_cache
    assert k1 in session.plan_cache and k3 in session.plan_cache
    hits = session.plan_cache.hits
    session.query(sqls[0])
    session.query(sqls[2])
    assert session.plan_cache.hits == hits + 2
    # an evicted statement still works for whoever holds it
    _, expected = session.db.reference_query(sqls[1])
    assert held.execute().rows == expected
    assert k2 not in session.plan_cache


def count_binds(monkeypatch):
    """Count ``Binder.bind`` calls from here on (the list's length)."""
    calls = []
    bind = Binder.bind

    def counting(self, *args, **kwargs):
        calls.append(args)
        return bind(self, *args, **kwargs)

    monkeypatch.setattr(Binder, "bind", counting)
    return calls


def test_one_eviction_policy_binds_each_cached_text_once(monkeypatch):
    """A, B, A, C, A at capacity 2: C evicts B (A was used since), so
    the last A finds its statement -- bound and planned -- still
    cached.  3 binds, 2 hits, 3 misses."""
    db = make_db()
    session = db.session()
    session.plan_cache.capacity = 2
    texts = {name: f"SELECT C.id FROM C WHERE C.v = {i}"
             for i, name in enumerate("ABC")}
    expected = {name: db.reference_query(sql)[1]
                for name, sql in texts.items()}
    binds = count_binds(monkeypatch)
    for name in "ABACA":
        assert session.query(texts[name]).rows == expected[name]
    assert len(binds) == 3
    assert (session.plan_cache.hits, session.plan_cache.misses) == (2, 3)


def test_prepare_hands_out_the_cached_statement():
    """``prepare`` and ``query`` share one statement per normalized
    text and knobs; it keeps the first text."""
    session = make_db().session()
    sql = "SELECT C.id FROM C WHERE C.h = ?"
    stmt = session.prepare(sql)
    assert session.prepare("select  C.id FROM C where C.h = ? ;") is stmt
    session.query(sql, params=(1,))
    assert stmt.executions == 1
    assert stmt.sql == sql
    assert session.prepare(sql, vis_strategy="pre") is not stmt


def test_sessions_have_isolated_caches():
    db = make_db()
    s1, s2 = db.session(), db.session()
    sql = "SELECT C.id FROM C WHERE C.h = 1"
    s1.query(sql)
    s2.query(sql)
    assert s1.plan_cache.misses == 1
    assert s2.plan_cache.misses == 1
    assert s2.plan_cache.hits == 0


# ---------------------------------------------------------------------------
# compaction invalidation
# ---------------------------------------------------------------------------

def test_rebuild_keeps_plans_of_untouched_tables():
    """Compacting clean tables (no DML since build) must not flush the
    cache: invalidation is routed through per-table generations, and
    untouched tables' generations do not move."""
    db = make_db()
    session = db.session()
    sql = "SELECT C.id FROM C WHERE C.h = 1"
    first = session.query(sql)
    assert len(session.plan_cache) == 1
    assert db.compact("P").state == "clean"
    assert len(session.plan_cache) == 1
    again = session.query(sql)
    assert sorted(again.rows) == sorted(first.rows)
    assert session.plan_cache.hits == 1
    assert session.plan_cache.misses == 1


def test_rebuild_stale_drops_only_mutated_tables():
    """Regression (PR-3 satellite): folding DML debt used to flush
    every session's plan cache globally; now only plans touching the
    mutated tables stale-drop, selectively, on their next lookup."""
    db = make_db()
    session = db.session()
    c_sql = "SELECT C.id FROM C WHERE C.h = 1"
    p_sql = "SELECT P.id FROM P WHERE P.h = 2"
    session.query(c_sql)
    session.query(p_sql)
    db.execute("INSERT INTO P VALUES (0, 99, 2)")
    session.query(p_sql)                   # refresh P's entry post-DML
    assert session.plan_cache.stale_drops == 1

    db.compact("P")                        # folds P; C is untouched
    assert len(session.plan_cache) == 2    # nothing flushed eagerly

    session.query(c_sql)                   # untouched table: cache hit
    assert session.plan_cache.hits == 1
    result = session.query(p_sql)          # mutated table: stale-drop
    assert session.plan_cache.stale_drops == 2
    _, expected = db.reference_query(p_sql)
    assert sorted(result.rows) == sorted(expected)


def test_compact_preserves_data_and_statements():
    db = make_db()
    stmt = db.prepare(TEMPLATE)
    db.execute("INSERT INTO P VALUES (1, 7, 2)")   # debt for the fold
    before = stmt.execute((1, 30))
    assert db.compact("P").state == "done"
    after = stmt.execute((1, 30))
    assert sorted(after.rows) == sorted(before.rows)


# ---------------------------------------------------------------------------
# per-table DML invalidation
# ---------------------------------------------------------------------------

def test_dml_invalidates_only_plans_touching_the_mutated_table():
    """INSERT into P must not evict cached C-only plans."""
    db = make_db()
    session = db.session()
    c_sql = "SELECT C.id FROM C WHERE C.h = 1"
    p_sql = "SELECT P.id FROM P WHERE P.h = 2"
    session.query(c_sql)
    session.query(p_sql)
    assert len(session.plan_cache) == 2

    db.execute("INSERT INTO P VALUES (0, 99, 2)")

    session.query(c_sql)               # untouched table: cache hit
    assert session.plan_cache.hits == 1
    assert session.plan_cache.stale_drops == 0
    session.query(p_sql)               # mutated table: replanned
    assert session.plan_cache.stale_drops == 1
    assert session.plan_cache.hits == 1
    # both entries are fresh again
    session.query(p_sql)
    assert session.plan_cache.hits == 2


def test_dml_invalidates_join_plans_touching_the_table():
    db = make_db()
    session = db.session()
    join_sql = ("SELECT P.id FROM P, C WHERE P.fk = C.id "
                "AND C.h = 1 AND P.v < 30")
    session.query(join_sql)
    db.execute("INSERT INTO C VALUES (70, 1)")
    result = session.query(join_sql)   # C mutated -> join plan stale
    assert session.plan_cache.stale_drops == 1
    _, expected = db.reference_query(join_sql)
    assert sorted(result.rows) == sorted(expected)


def test_prepared_statement_replans_after_dml_on_its_tables():
    db = make_db()
    stmt = db.prepare(TEMPLATE)
    first = stmt.execute((1, 200))
    db.execute("INSERT INTO P VALUES (1, 150, 3)")
    again = stmt.execute((1, 200))
    _, expected = db.reference_query(concrete(1, 200))
    assert sorted(again.rows) == sorted(expected)
    assert len(again.rows) == len(first.rows) + 1


# ---------------------------------------------------------------------------
# batched execution
# ---------------------------------------------------------------------------

def test_mixed_sql_batch_matches_individual_queries():
    db = make_db()
    sqls = ["SELECT C.id FROM C WHERE C.h = 1",
            "SELECT P.id FROM P WHERE P.h = 2",
            concrete(0, 40)]
    batch = db.query_many(sqls)
    assert len(batch) == 3
    for sql, result in zip(sqls, batch):
        _, expected = db.reference_query(sql)
        assert sorted(result.rows) == sorted(expected)


def test_batch_stats_aggregate_over_the_window():
    db = make_db()
    param_sets = [(1, v) for v in (10, 20, 30)]
    batch = db.query_many(TEMPLATE, param_sets)
    assert batch.stats.result_rows == sum(
        r.stats.result_rows for r in batch
    )
    assert batch.stats.ram_peak == max(r.stats.ram_peak for r in batch)
    # the window covers shared costs too, so it can only be >= the sum
    assert batch.stats.total_s >= sum(
        r.stats.total_s for r in batch
    ) - 1e-9
    assert batch.stats.bytes_to_secure > 0


def test_batch_amortizes_outbound_round_trips():
    db = make_db()
    param_sets = [(h, v) for h in (0, 1) for v in range(10, 20)]
    ch = db.token.channel.stats

    before = ch.messages_to_untrusted
    stmt = db.session().prepare(TEMPLATE)
    for params in param_sets:
        stmt.execute(params)
    loop_msgs = ch.messages_to_untrusted - before

    before = ch.messages_to_untrusted
    db.session().query_many(TEMPLATE, param_sets)
    batch_msgs = ch.messages_to_untrusted - before

    assert batch_msgs < loop_msgs


def test_empty_batch():
    db = make_db()
    batch = db.query_many(TEMPLATE, [])
    assert len(batch) == 0
    assert batch.stats.result_rows == 0


def test_fleet_session_has_no_batched_path():
    """Batching amortizes round trips on one token's channel; a fleet
    session must say so (GhostDBError), not die on a missing
    attribute -- and must keep serving ordinary statements."""
    fleet = make_db(shards=2)
    session = fleet.session()
    with pytest.raises(GhostDBError):
        session.query_many(TEMPLATE, [(1, 20)])
    with pytest.raises(GhostDBError):
        session.query_many([concrete(1, 20)])
    result = session.query(TEMPLATE, params=(1, 20))
    assert result.rows == fleet.reference_query(concrete(1, 20))[1]


def test_param_sets_with_sql_list_rejected():
    db = make_db()
    with pytest.raises(GhostDBError):
        db.query_many(["SELECT C.id FROM C WHERE C.h = 1"],
                      param_sets=[(1,)])


def test_batched_queries_stay_leak_free():
    """The batched path sends only query texts and Vis requests."""
    db = make_db()
    db.token.channel.stats.outbound_log.clear()
    db.query_many(TEMPLATE, [(1, 20), (0, 30)])
    kinds = {m.kind for m in db.audit_outbound()}
    assert kinds <= {"query", "vis_request"}


# ---------------------------------------------------------------------------
# ram_peak regression (satellite fix)
# ---------------------------------------------------------------------------

def test_ram_peak_is_per_query_not_lifetime():
    """Acceptance: two queries of different sizes on the same instance
    report different peaks (the old code reported the token's lifetime
    peak for every query)."""
    db = make_db()
    big = db.execute("SELECT P.id, C.id FROM P, C WHERE P.fk = C.id "
                   "AND C.h = 1")
    small = db.execute("SELECT C.id FROM C WHERE C.h = 1")
    assert small.stats.ram_peak > 0
    assert small.stats.ram_peak < big.stats.ram_peak


def test_ram_peak_stable_across_repetitions():
    db = make_db()
    sql = "SELECT C.id FROM C WHERE C.h = 1"
    first = db.execute(sql).stats.ram_peak
    second = db.execute(sql).stats.ram_peak
    assert first == second


# ---------------------------------------------------------------------------
# a kept plan run far from the parameters it was planned for
# ---------------------------------------------------------------------------

Q_TOPK = ("SELECT T0.id, T1.v1, T1.v2 FROM T0, T1 "
          "WHERE T0.fk1 = T1.id AND T1.v1 < ? AND T0.h3 = ? "
          "ORDER BY T1.v2 DESC, T0.id LIMIT 20")
Q_GROUP = ("SELECT T1.v1, COUNT(*), SUM(T1.v2), MIN(T1.v2), MAX(T1.v2) "
           "FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v1 < ? AND T0.h3 = ? "
           "GROUP BY T1.v1")


def test_sniffed_plan_leaves_no_temp_file_at_other_selectivities():
    """perfbench finding 2 (a Query Q plan prepared at sV .05 and run at
    sV .2 left one ``__temp_N`` flash page behind per execution) stays
    fixed: whatever selectivity a prepared plan was sniffed at, running
    it at any other leaves the flash file and page counts where they
    were and every RAM allocation freed."""
    db = build_synthetic(SyntheticConfig(scale=0.002, full_indexing=True))
    store, ftl = db.token.store, db.token.ftl
    for sql, hidden in ((TEMPLATE_FIG10, 2), (TEMPLATE_FIG12, 2),
                        (Q_TOPK, 7), (Q_GROUP, 7)):
        for planned_at in (0.01, 0.05, 0.2):
            stmt = db.prepare(sql)
            stmt.execute((sv_to_v1_bound(planned_at), hidden))
            before = store.n_files, ftl.mapped_pages()
            for run_at in (0.01, 0.05, 0.2, 0.5):
                stmt.execute((sv_to_v1_bound(run_at), hidden))
                assert (store.n_files, ftl.mapped_pages()) == before, \
                    (sql, planned_at, run_at)
    db.token.ram.assert_all_freed()
