"""What the DML journal keeps of the engine, and what that costs.

The sketch copies a catalog savepoint takes must be equal to their
originals and share no mutable state with them; the savepoint as a
whole must hold nothing that grows with the database's accumulated
debt; and rolling a statement back must land exactly on the
pre-statement export."""

import copy

from repro.core.ghostdb import GhostDB
from repro.core.recovery import StatementJournal
from repro.core.stats import ColumnStats, TableStats
from repro.schema.ddl import schema_from_sql
from repro.sql.parser import parse


def sketch_state(s):
    return (s.capacity, s.n, dict(s.counts), s.residual_count,
            s.residual_distinct, s.min_key, s.max_key)


def table_state(t):
    return (t.table, t.capacity, t._positions,
            {name: sketch_state(s) for name, s in t.columns.items()})


def bloom_state(b):
    return (b.n_hashes, b.n_items, b.m_bits, bytes(b._bits), b.count_added)


def assert_independent(original, twin, state, mutate):
    """Equal now; mutating either side leaves the other untouched."""
    before = state(original)
    assert state(twin) == before
    mutate(twin)
    assert state(twin) != before and state(original) == before
    twin_state = state(twin)
    mutate(original)
    mutate(original)
    assert state(original) != before and state(twin) == twin_state


def test_column_stats_copy_is_equal_and_independent():
    # capacity 4 and 6 distinct values: the residual is in play
    sketch = ColumnStats.from_values([1, 1, 2, 3, 4, 5, 6, 6], capacity=4)
    assert sketch.residual_count > 0

    def mutate(s):
        s.add(9)        # spills: evicts a tracked value
        s.add(1)
        s.remove(2)

    assert_independent(sketch, sketch.copy(), sketch_state, mutate)


def test_table_stats_copy_is_equal_and_independent():
    table = schema_from_sql(
        ["CREATE TABLE A (id int, v1 int, v2 char(4), h1 int HIDDEN)"]
    ).table("A")
    stats = TableStats.from_rows(
        table, [(i % 3, f"s{i % 2}", i) for i in range(20)], capacity=8)
    twin = stats.copy()
    assert twin.table is stats.table          # the schema is shared
    assert twin.n_rows == stats.n_rows == 20

    def mutate(t):
        t.add_row((7, "zz", 99))
        t.remove_row((0, "s0", 0))

    assert_independent(stats, twin, table_state, mutate)


# ---------------------------------------------------------------------------
# the journal: O(statement) to arm, exact to roll back
# ---------------------------------------------------------------------------

N_ROWS, N_DEAD = 25_000, 20_000
EIGHT_ROWS = ", ".join(f"({i}, {i % 5}, {i % 3})" for i in range(8))


def indebted_db():
    """Root ``P`` (fk to ``C``) carrying 20 000 tombstones.  Every
    sketched column has at most five distinct values, so no legitimate
    copy of ``P``'s own sketches outgrows an eight-row statement."""
    db = GhostDB()
    db.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
               "v int, hp int HIDDEN)")
    db.execute("CREATE TABLE C (id int, h int HIDDEN, w int)")
    db.load("C", [(i % 4, i % 5) for i in range(10)])
    db.load("P", [(i % 10, i % 5, i % 3) for i in range(N_ROWS)])
    db.build()
    assert db.execute("DELETE FROM P WHERE P.v < 4").rows_affected == N_DEAD
    return db


def container_sizes(root, skip):
    """Lengths of every container reachable from ``root`` through
    attributes and container items, not entering the objects in
    ``skip`` (live structures the journal merely points at)."""
    sizes, seen, todo = [], set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or id(obj) in skip or isinstance(obj, str):
            continue
        seen.add(id(obj))
        if isinstance(obj, (bytes, bytearray)):
            sizes.append(len(obj))
        elif isinstance(obj, dict):
            sizes.append(len(obj))
            todo.extend(obj.keys())
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            sizes.append(len(obj))
            todo.extend(obj)
        elif hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    return sizes


def test_arming_a_journal_for_an_insert_copies_nothing_that_grows_with_debt():
    db = indebted_db()
    assert len(db.catalog.tombstones["P"]) == N_DEAD
    sql = f"INSERT INTO P VALUES {EIGHT_ROWS}"
    bound = db.binder.bind_insert(parse(sql), sql)
    live = [db, *db.catalog.attr_indexes.values(),
            *db.catalog.id_indexes.values(), *db.schema.tables.values()]
    with StatementJournal(db, bound) as journal:
        sizes = container_sizes(journal, {id(obj) for obj in live})
    assert sizes and max(sizes) <= len(bound.rows) == 8


def engine_export(db):
    """Everything a statement can change, comparable with ``==``: the
    catalog's fields (sketches and delta Blooms spelled out, they
    define no equality), Untrusted's row counts, flash occupancy."""
    catalog = db.catalog
    meta = copy.deepcopy({
        "images": {t: (img.n_rows, img.heap and img.heap.n_rows)
                   for t, img in catalog.images.items()},
        "skts": {t: skt.heap.n_rows for t, skt in catalog.skts.items()},
        "indexes": [(ci.name, ci.btree.n_entries, ci._delta)
                    for ci in [*catalog.attr_indexes.values(),
                               *catalog.id_indexes.values()]],
        "raw_rows": catalog.raw_rows,
        "tombstones": {t: sorted(s) for t, s in catalog.tombstones.items()},
        "fk_deltas": catalog.fk_deltas,
        "generations": (catalog.data_generations,
                        catalog.stats_generations,
                        catalog.built_generations),
    })
    meta["stats"] = {t: table_state(s) for t, s in catalog.stats.items()}
    blooms = {
        ci.name: (ci.delta_entries, ci.delta_log_pages,
                  ci._delta_bloom and (bytes(ci._delta_bloom._bits),
                                       ci._delta_bloom.count_added))
        for ci in [*catalog.attr_indexes.values(),
                   *catalog.id_indexes.values()]
    }
    visible = {t: db.untrusted.n_rows(t) for t in db.schema.tables}
    return (meta, blooms, visible, db.storage_report(),
            db.token.store.n_files, db.table_generations)


def test_rollback_lands_on_the_pre_statement_export():
    db = indebted_db()
    statements = [
        # the first insert ever: its delta logs and Blooms are created,
        # then must be gone again
        f"INSERT INTO P VALUES {EIGHT_ROWS}",
        "DELETE FROM P WHERE P.v = 4 AND P.hp = 1",
        "INSERT INTO C VALUES (3, 4)",
        "DELETE FROM C WHERE C.w = 77",          # matches nothing
    ]
    for kept in (None, "INSERT INTO P VALUES (1, 4, 2), (2, 4, 0)"):
        if kept:            # now on top of existing delta logs and edges
            db.execute(kept)
        for sql in statements:
            before = engine_export(db)
            db.execute(sql)
            assert engine_export(db) != before or "77" in sql
            assert db.undo_last_dml() == sql.split()[2]
            assert engine_export(db) == before, sql
    _, oracle = db.reference_query("SELECT P.id FROM P WHERE P.hp = 2")
    assert db.execute("SELECT P.id FROM P WHERE P.hp = 2").rows == oracle
