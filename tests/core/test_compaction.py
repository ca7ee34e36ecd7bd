"""Incremental per-table compaction: bounded steps, advisor, gating.

The contract under test: ``db.compact()`` folds DML debt in bounded
steps while queries interleaved between steps stay oracle-identical;
the advisor prices flash headroom *before* the first shadow write and
defers/declines with a clear error instead of dying mid-fold;
interleaved DML restarts the job instead of corrupting it; and folding
a table's delta logs re-opens the planner's index-order ORDER BY path
-- whose gating reason ``EXPLAIN`` must spell out, never swallow.
"""

import pytest

from repro.core.ghostdb import GhostDB
from repro.core.plan import SortMethod
from repro.errors import (CompactionDeclined, CompactionError, PlanError,
                          SchemaError)
from repro.flash.constants import FlashParams
from repro.hardware.token import TokenConfig
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

PROBES = (
    "SELECT P.id, C.w FROM P, C WHERE P.fk = C.id AND C.h = 1 "
    "AND P.v < 60",
    "SELECT C.id FROM C WHERE C.h = 2",
    "SELECT P.id FROM P ORDER BY P.hp LIMIT 7",
)


def make_db(token_config=None, n_children=30, n_parents=200):
    """Two tables, P -> C, with indexed hidden columns on both."""
    db = GhostDB(config=token_config,
                 indexed_columns={"C": ("h",), "P": ("hp",)})
    db.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
               "v int, hp float HIDDEN)")
    db.execute("CREATE TABLE C (id int, h int HIDDEN, w int)")
    db.load("C", [(i % 10, i % 7) for i in range(n_children)])
    db.load("P", [(i % n_children, (i * 37) % 100, (i * 13 % 97) / 3.0)
                  for i in range(n_parents)])
    db.build()
    return db


def dirty_tables(db):
    return [t for t, s in db.compaction_status().items() if s.dirty]


def assert_oracle(db, sql):
    result = db.execute(sql)
    _, expected = db.reference_query(sql)
    if "ORDER BY" in sql:
        assert result.rows == expected, sql
    else:
        assert sorted(result.rows) == sorted(expected), sql
    return result


# ---------------------------------------------------------------------------
# bounded steps, interleaved queries, convergence
# ---------------------------------------------------------------------------

def test_bounded_steps_with_oracle_identical_queries_between_them():
    db = make_db()
    db.execute("DELETE FROM P WHERE P.v < 20")
    for i in range(8):
        db.execute("INSERT INTO P VALUES (?, ?, ?)",
                   params=(i % 30, 50 + i, i / 4.0))
    assert db.compaction_status()["P"].dirty
    steps = 0
    while True:
        progress = db.compact("P", max_steps=1, pages_per_step=1)
        steps += 1
        assert steps < 400, "compaction did not converge"
        if progress.done:
            break
        assert progress.state == "in-progress"
        # the half-done job is visible in the status report ...
        assert db.compaction_status()["P"].job_phase is not None
        # ... and every query against the old image stays correct
        for sql in PROBES:
            assert_oracle(db, sql)
    assert steps > 3                      # genuinely incremental
    assert progress.pages_rewritten > 0
    assert progress.max_step_us > 0
    status = db.compaction_status()
    assert not status["P"].dirty and status["P"].job_phase is None
    assert not dirty_tables(db)
    for sql in PROBES:
        assert_oracle(db, sql)
    db.token.ram.assert_all_freed()


def test_clean_table_is_a_noop_and_bad_names_raise():
    db = make_db()
    progress = db.compact("P")
    assert progress.state == "clean" and progress.done
    assert progress.steps_run == 0 and progress.pages_rewritten == 0
    assert progress.advisor.verdict == "clean"
    with pytest.raises(SchemaError):
        db.compact("NoSuchTable")


@pytest.mark.parametrize("max_steps", [0, -1])
def test_max_steps_below_one_is_rejected_before_any_work(max_steps):
    """``max_steps < 1`` never entered the step loop and then crashed
    on the missing job (``AttributeError``), clean table or dirty."""
    db = make_db()
    with pytest.raises(CompactionError, match="max_steps"):
        db.compact("P", max_steps=max_steps)
    db.execute("DELETE FROM P WHERE P.v < 20")
    pages = db.token.ledger.counters["pages_written"]
    with pytest.raises(CompactionError, match="max_steps"):
        db.compact("P", max_steps=max_steps)
    assert db.token.ledger.counters["pages_written"] == pages
    assert db.compactions_in_flight() == []
    assert db.compaction_status()["P"].dirty
    assert not db.compact("P", max_steps=1, pages_per_step=1).done


def test_compacting_parent_folds_the_whole_subtree():
    db = make_db()
    db.execute("INSERT INTO P VALUES (1, 90, 0.25)")  # fk delta lands on C
    db.execute("DELETE FROM P WHERE P.v < 10")
    assert db.compaction_status()["C"].dirty          # subtree fk delta
    assert db.compact("P").done
    # P's compaction rebuilt C's rippled indexes and cleared the fk
    # deltas, so C has nothing left to fold
    assert db.compact("C").state == "clean"
    assert not dirty_tables(db)


def test_parent_swap_aborts_the_child_job_it_left_without_work(tmp_path):
    """A bounded job on C that P's swap overtakes (C clean afterwards)
    must not linger: nothing would ever step it again, its shadow files
    would stay on flash and ``snapshot`` would refuse for good."""
    db, twin = make_db(), make_db()
    for side in (db, twin):
        side.execute("INSERT INTO P VALUES (1, 90, 0.25)")
        side.execute("DELETE FROM P WHERE P.v < 10")
    files_before = db.token.store.n_files
    while True:                       # step C until it owns shadow files
        assert not db.compact("C", max_steps=1, pages_per_step=1).done
        if db.token.store.n_files > files_before:
            break
    assert db.compact("P").done and twin.compact("P").done
    assert not dirty_tables(db)
    assert not db._compactor._jobs
    # no shadow file survives: same files and pages as the twin that
    # never started the C job, and no restart was counted for it
    assert db.token.store.n_files == twin.token.store.n_files
    assert db.token.ftl.mapped_pages() == twin.token.ftl.mapped_pages()
    assert not db.token.ledger.counters.get("compaction_restarts")
    db.snapshot(str(tmp_path / "db.img"))
    for sql in PROBES:
        assert_oracle(db, sql)


def test_interleaved_dml_restarts_the_job():
    db = make_db()
    db.execute("DELETE FROM P WHERE P.v < 30")
    first = db.compact("P", max_steps=1, pages_per_step=1)
    assert not first.done
    db.execute("INSERT INTO P VALUES (0, 99, 1.5)")   # stale remap now
    progress = db.compact("P")
    assert progress.done and progress.restarts == 1
    assert db.token.ledger.counters.get("compaction_restarts") == 1
    assert not dirty_tables(db)
    for sql in PROBES:
        assert_oracle(db, sql)


def test_sibling_swap_restarts_a_job_copying_their_shared_ancestor_skt():
    """T11 and T12 are siblings under T1, so both folds rewrite SKT(T1)
    and SKT(T0).  T12's swap frees the skt_T0 heap a half-done T11 job
    is copying, yet moves no generation of T11, T1 or T0 -- only T12's.
    The guard must cover every table's generation to see it: narrowed
    to the tables T11's fold reads, the next T11 step reads a freed
    file (``StorageError: flash file 'skt_T0' already freed``)."""
    db = build_synthetic(SyntheticConfig(scale=0.0005))
    n12 = db.catalog.n_rows("T12")
    marker = 10**6                      # v1 of every new row
    for i in range(10):
        db.execute("INSERT INTO T11 VALUES (?, ?)", params=(marker + i, 1))
        db.execute("INSERT INTO T12 VALUES (?, ?, ?, ?)",
                   params=(marker + i, 0, 1, 2))
    for new_id in range(n12 + 5, n12 + 10):   # the last 5 new T12 rows
        db.execute("INSERT INTO T1 VALUES (?, ?, ?, ?, ?)",
                   params=(0, new_id, 0, 0, 1))
    db.execute("DELETE FROM T11 WHERE T11.v1 >= ?", params=(marker,))
    db.execute("DELETE FROM T12 WHERE T12.v1 >= ? AND T12.v1 < ?",
               params=(marker, marker + 5))

    progress = db.compact("T11", max_steps=4)
    assert progress.state == "in-progress"
    assert progress.phase == "skt_T0 pages 32/40"     # mid-copy
    assert db.compact("T12").done
    progress = db.compact("T11")
    assert progress.done and progress.restarts == 1
    assert_oracle(db, "SELECT T1.id, T12.v1, T12.h2 FROM T1, T12 "
                      "WHERE T1.fk12 = T12.id")


# ---------------------------------------------------------------------------
# the advisor: defer / decline before the first shadow write
# ---------------------------------------------------------------------------

def _fill_headroom_down_to(db, target_pages):
    """Eat FTL headroom with a filler file until it drops below target."""
    filler = db.token.store.create("filler")
    page = b"\0" * db.token.page_size
    for _ in range(db.token.ftl.headroom_pages() - target_pages):
        filler.append_page(page)
    return filler


def test_advisor_declines_then_defers_then_proceeds():
    db = make_db(TokenConfig(flash=FlashParams(n_blocks=16)),
                 n_children=20, n_parents=6500)
    # a small delete: little log churn, but the fold must still shadow
    # the full heap/SKT/index footprint, so the priced job stays large
    db.execute("DELETE FROM P WHERE P.v = 3")
    need = db.compaction_advice("P").required_pages
    assert need > 50         # big enough to sit above the GC reserve

    filler = _fill_headroom_down_to(db, need - 1)
    files = db.token.store.n_files
    pages = db.token.store.pages_used()
    with pytest.raises(CompactionDeclined) as err:
        db.compact("P")
    assert "declined" in str(err.value) and "headroom" in str(err.value)
    # nothing was written: no shadow files, no pages, debt untouched
    assert db.token.store.n_files == files
    assert db.token.store.pages_used() == pages
    assert db.compaction_status()["P"].dirty
    for sql in PROBES:
        assert_oracle(db, sql)

    filler.free()
    filler = _fill_headroom_down_to(db, 3 * need - 1)   # fits, no margin
    assert need <= db.token.ftl.headroom_pages() < 3 * need
    with pytest.raises(CompactionDeclined) as err:
        db.compact("P")
    assert "deferred" in str(err.value)
    # the margin is fixed: freeing the filler is what lets it proceed
    filler.free()
    assert db.compaction_advice("P").verdict == "proceed"
    progress = db.compact("P")
    assert progress.done
    assert not dirty_tables(db)
    for sql in PROBES:
        assert_oracle(db, sql)


# ---------------------------------------------------------------------------
# planner gating: EXPLAIN spells out the reason, compact() lifts it
# ---------------------------------------------------------------------------

def test_explain_reports_delta_log_gate_and_compact_lifts_it():
    db = make_db()
    sql = "SELECT P.id FROM P ORDER BY P.hp LIMIT 5"
    assert "gated" not in db.explain(sql)
    db.execute("INSERT INTO P VALUES (1, 10, 2.25)")
    text = db.explain(sql)
    assert "gated:" in text and "delta-log entries" in text
    assert "db.compact('P')" in text       # the fix, not just the fact
    with pytest.raises(PlanError):
        db.execute(sql, order_method="index-order")
    assert db.compact("P").done
    text = db.explain(sql)
    assert "gated" not in text
    result = db.execute(sql, order_method="index-order")
    assert result.rows == db.reference_query(sql)[1]


def test_explain_reports_fk_delta_gate_below_the_anchor():
    db = make_db()
    sql = ("SELECT P.id FROM P, C WHERE P.fk = C.id AND C.h >= 0 "
           "ORDER BY C.h LIMIT 5")
    db.execute("INSERT INTO P VALUES (2, 11, 3.75)")  # fk delta on C
    text = db.explain(sql)
    assert "gated:" in text and "fk delta edges" in text
    assert "db.compact('C')" in text
    assert db.compact("C").done            # pure fk-delta clear
    assert "gated" not in db.explain(sql)
    result = db.execute(sql, order_method="index-order")
    assert result.rows == db.reference_query(sql)[1]


def test_index_order_scan_chosen_on_a_freshly_folded_table():
    db = make_db(TokenConfig(ram_bytes=16384), n_children=10,
                 n_parents=1300)
    sql = "SELECT P.id FROM P ORDER BY P.hp"
    assert db.plan_query(sql).order.method is SortMethod.INDEX_ORDER
    db.execute("INSERT INTO P VALUES (1, 10, 2.25)")
    assert db.plan_query(sql).order.method is not SortMethod.INDEX_ORDER
    assert db.compact("P").done
    plan = db.plan_query(sql)
    assert plan.order.method is SortMethod.INDEX_ORDER
    assert_oracle(db, sql)


# ---------------------------------------------------------------------------
# status reporting, EXPLAIN ANALYZE, the rebuild shim
# ---------------------------------------------------------------------------

def test_compaction_status_reports_every_kind_of_debt():
    db = make_db()
    assert all(not s.dirty for s in db.compaction_status().values())
    db.execute("DELETE FROM P WHERE P.v < 10")
    db.execute("INSERT INTO P VALUES (3, 77, 0.5)")
    status = db.compaction_status()
    p = status["P"]
    assert p.dirty and p.tombstones > 0 and p.tombstone_log_bytes > 0
    assert p.delta_entries > 0 and p.delta_log_bytes > 0
    assert p.advisor.verdict == "proceed" and p.advisor.ok
    assert "tombstones=" in p.describe() and "advisor=proceed" in \
        p.describe()
    assert status["C"].dirty and status["C"].fk_delta_edges > 0


def test_explain_analyze_appends_the_compaction_status_block():
    db = make_db()
    db.execute("DELETE FROM P WHERE P.v = 3")
    text = db.explain("SELECT P.id FROM P WHERE P.v < 50", analyze=True)
    assert "compaction status:" in text
    assert "tombstones=" in text and "advisor=" in text
    # plain EXPLAIN stays plan-only
    assert "compaction status:" not in db.explain(
        "SELECT P.id FROM P WHERE P.v < 50")


def test_compacting_every_dirty_table_converges():
    db = make_db()
    db.execute("DELETE FROM P WHERE P.v < 15")
    db.execute("INSERT INTO C VALUES (8, 3)")
    # one pass in any order converges: compact(T) never re-dirties
    # another table
    for table in dirty_tables(db):
        db.compact(table)
    assert not dirty_tables(db)
    for sql in PROBES:
        assert_oracle(db, sql)


# ---------------------------------------------------------------------------
# the swap's side effects: visible image, flash space, cache, audit
# ---------------------------------------------------------------------------

def test_visible_image_shrinks_at_the_swap_not_at_the_delete():
    db = make_db()
    n_before = db.untrusted.n_rows("P")
    deleted = db.execute("DELETE FROM P WHERE P.v < 40").rows_affected
    assert deleted > 0
    # deferred deletion: the visible image keeps the rows until the fold
    assert db.untrusted.n_rows("P") == n_before
    bytes_before = db.token.store.bytes_used()
    assert db.compact("P").done
    assert db.untrusted.n_rows("P") == n_before - deleted
    assert db.token.store.bytes_used() < bytes_before
    for sql in PROBES:
        assert_oracle(db, sql)


def test_page_cache_survives_compaction_without_stale_bytes():
    db = make_db()
    for sql in PROBES:
        db.execute(sql)                # warm the page cache
    db.execute("DELETE FROM P WHERE P.v < 25")
    assert db.token.store.cache_stats()["cached_pages"] > 0
    assert db.compact("P").done
    # targeted invalidation: entries of untouched files kept serving
    assert db.token.store.cache_stats()["cached_pages"] > 0
    for sql in PROBES:                 # stale cached bytes would show here
        assert_oracle(db, sql)


def test_compaction_keeps_the_audit_profile_clean():
    db = make_db()
    db.execute("DELETE FROM P WHERE P.v < 35")
    db.execute("INSERT INTO P VALUES (5, 91, 4.5)")
    while not db.compact("P", max_steps=2).done:
        assert_oracle(db, PROBES[0])
    kinds = {m.kind for m in db.audit_outbound()}
    assert kinds <= {"query", "vis_request", "dml_visible"}
