"""Property suite: random DML / bounded-compaction interleavings.

Three properties, checked on randomized operation sequences:

* every query issued between DML statements and *between bounded
  compaction steps* (jobs deliberately left half-done) matches the
  reference oracle;
* compaction converges: finishing every dirty table leaves no debt;
* the converged image is indistinguishable from a from-scratch build
  of the same live rows -- bit-for-bit in statistics sketches, the
  storage report, query results and simulated query costs.
"""

import random
from unittest.mock import patch

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import compaction
from repro.core.ghostdb import GhostDB
from repro.errors import GhostDBError

PROBES = (
    "SELECT P.id, C.w FROM P, C WHERE P.fk = C.id AND C.h = 1 "
    "AND P.v < 60",
    "SELECT C.id FROM C WHERE C.h = 2",
    "SELECT P.id FROM P ORDER BY P.hp LIMIT 7",
)


def build_db(rows_c, rows_p):
    db = GhostDB(indexed_columns={"C": ("h",), "P": ("hp",)})
    db.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
               "v int, hp float HIDDEN)")
    db.execute("CREATE TABLE C (id int, h int HIDDEN, w int)")
    db.load("C", rows_c)
    db.load("P", rows_p)
    db.build()
    return db


def build_random_db(rng):
    n_c = rng.randint(8, 20)
    rows_c = [(rng.randrange(8), rng.randrange(6)) for _ in range(n_c)]
    rows_p = [(rng.randrange(n_c), rng.randrange(100),
               rng.random() * 30) for _ in range(rng.randint(60, 150))]
    return build_db(rows_c, rows_p)


def assert_oracle(db, sql):
    result = db.execute(sql)
    _, expected = db.reference_query(sql)
    if "ORDER BY" in sql:
        assert result.rows == expected, sql
    else:
        assert sorted(result.rows) == sorted(expected), sql


def apply_random_op(db, rng):
    """One random mutation or bounded-compaction slice."""
    roll = rng.random()
    if roll < 0.30:
        # the fk must name a live C row: an earlier DELETE FROM C may
        # have succeeded, and compact("C") re-densifies the ids
        live_c = [rid for rid in range(db.catalog.n_rows("C"))
                  if db.catalog.is_live("C", rid)]
        db.execute("INSERT INTO P VALUES (?, ?, ?)",
                   params=(rng.choice(live_c), rng.randrange(100),
                           rng.random() * 30))
    elif roll < 0.45:
        db.execute("INSERT INTO C VALUES (?, ?)",
                   params=(rng.randrange(8), rng.randrange(6)))
    elif roll < 0.65:
        db.execute("DELETE FROM P WHERE P.v = ?",
                   params=(rng.randrange(100),))
    elif roll < 0.75:
        try:   # C rows may still be referenced: RESTRICT may refuse
            db.execute("DELETE FROM C WHERE C.w = ?",
                       params=(rng.randrange(6),))
        except GhostDBError:
            pass
    else:
        table = rng.choice(("P", "C"))
        max_steps = rng.randint(1, 4)
        with patch.object(compaction, "PAGES_PER_STEP",
                          rng.choice((1, 2, 8))):
            db.compact(table, max_steps=max_steps)


def dirty_tables(db):
    return [t for t, s in db.compaction_status().items() if s.dirty]


def finish_all_compactions(db):
    for _ in range(10):
        dirty = dirty_tables(db)
        if not dirty:
            return
        for table in dirty:
            while not db.compact(table).done:
                pass
    raise AssertionError("compaction did not converge")


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
@example(18884)     # DELETE FROM C succeeded, then an INSERT drew its id
def test_property_interleavings_converge_to_the_from_scratch_image(seed):
    rng = random.Random(seed)
    db = build_random_db(rng)
    for _ in range(rng.randint(6, 12)):
        apply_random_op(db, rng)
        assert_oracle(db, rng.choice(PROBES))

    finish_all_compactions(db)
    assert not dirty_tables(db)
    status = db.compaction_status()
    assert all(not s.dirty and s.tombstones == 0 and s.delta_entries == 0
               and s.fk_delta_edges == 0 for s in status.values())

    # a from-scratch build of the same live rows must be bit-identical:
    # after full convergence the retained raw rows *are* the live rows
    # with dense ids and remapped fks
    fresh = build_db(db.catalog.raw_rows["C"], db.catalog.raw_rows["P"])
    assert db.statistics() == fresh.statistics()
    assert db.storage_report() == fresh.storage_report()
    db.token.reset_costs()     # cost deltas from zero, like fresh's
    for sql in PROBES:
        # fresh sessions on both sides: identical planning work
        mine = db.session().query(sql)
        theirs = fresh.session().query(sql)
        assert mine.rows == theirs.rows, sql
        assert mine.stats.total_s == theirs.stats.total_s, sql


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_property_single_step_slices_with_dml_induced_restarts(seed):
    """The adversarial schedule: every compaction slice is one step of
    one page, DML keeps landing between slices (forcing restarts), and
    every intermediate state must still answer queries correctly."""
    rng = random.Random(seed)
    db = build_random_db(rng)
    db.execute("DELETE FROM P WHERE P.v < 30")
    restarts_seen = 0
    for _ in range(12):
        with patch.object(compaction, "PAGES_PER_STEP", 1):
            progress = db.compact("P", max_steps=1)
        restarts_seen = max(restarts_seen, progress.restarts)
        if progress.done:
            break
        if rng.random() < 0.4:
            apply_random_op(db, rng)
        assert_oracle(db, rng.choice(PROBES))
    finish_all_compactions(db)
    assert not dirty_tables(db)
    for sql in PROBES:
        assert_oracle(db, sql)
    db.token.ram.assert_all_freed()
