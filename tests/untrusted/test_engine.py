"""Unit tests for the Untrusted engine and the Vis protocol."""

import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.hardware.token import SecureToken
from repro.predicate import Predicate
from repro.schema.ddl import schema_from_sql
from repro.untrusted.engine import UntrustedEngine
from repro.untrusted.server import VisRequest, VisServer

DDL = [
    "CREATE TABLE A (id int, fk int HIDDEN REFERENCES B, v1 int, "
    "v2 char(8), h1 int HIDDEN)",
    "CREATE TABLE B (id int, v1 int)",
]


@pytest.fixture
def engine():
    eng = UntrustedEngine(schema_from_sql(DDL))
    eng.load("A", [(i % 10, f"s{i % 3}") for i in range(100)])
    eng.load("B", [(i,) for i in range(5)])
    return eng


def test_load_stores_only_visible_columns(engine):
    assert engine.n_rows("A") == 100
    assert [c.name for c in engine.visible_columns("A")] == ["v1", "v2"]


def test_load_wrong_width_rejected(engine):
    with pytest.raises(StorageError):
        engine.load("A", [(1, "x", 99)])


def test_select_ids_equality(engine):
    ids = engine.select_ids("A", [("v1", Predicate("=", 3))])
    assert ids == [i for i in range(100) if i % 10 == 3]
    assert ids == sorted(ids)


def test_select_ids_conjunction(engine):
    ids = engine.select_ids("A", [
        ("v1", Predicate("=", 3)),
        ("v2", Predicate("=", "s0")),
    ])
    assert ids == [i for i in range(100) if i % 10 == 3 and i % 3 == 0]


def test_select_ids_range_ops(engine):
    assert len(engine.select_ids("A", [("v1", Predicate("<", 2))])) == 20
    assert len(engine.select_ids("A", [("v1", Predicate("<=", 2))])) == 30
    assert len(engine.select_ids("A", [("v1", Predicate(">", 7))])) == 20
    assert len(engine.select_ids("A", [("v1", Predicate(">=", 7))])) == 30
    between = engine.select_ids(
        "A", [("v1", Predicate("between", 2, value2=4))]
    )
    assert len(between) == 30
    in_list = engine.select_ids(
        "A", [("v1", Predicate("in", values=(1, 5)))]
    )
    assert len(in_list) == 20


def test_select_rows_projects_columns(engine):
    ids = engine.select_ids("A", [("v1", Predicate("=", 0))])
    rows = engine.project("A", ids, ["v2"])
    assert rows[0] == (0, "s0")
    assert all(len(r) == 2 for r in rows)


def test_hidden_column_not_accessible(engine):
    with pytest.raises(StorageError):
        engine.select_ids("A", [("h1", Predicate("=", 1))])


# ---------------------------------------------------------------------------
# VisServer
# ---------------------------------------------------------------------------

@pytest.fixture
def server(engine):
    return VisServer(engine, SecureToken())


def test_vis_ids_only_charges_id_bytes(server):
    req = VisRequest("A", (("v1", Predicate("=", 3)),))
    result = server.vis(req)
    assert len(result.ids) == 10
    assert result.rows == [(i,) for i in result.ids]
    stats = server.token.channel.stats
    assert stats.bytes_to_secure == 10 * 4
    assert stats.bytes_to_untrusted == req.wire_size()


def test_vis_with_columns_charges_row_width(server):
    req = VisRequest("A", (("v1", Predicate("=", 3)),), ("v1", "v2"))
    result = server.vis(req)
    assert result.rows[0][1:] == (3, "s0")
    # id(4) + v1(4) + v2(8) per row
    assert server.token.channel.stats.bytes_to_secure == 10 * 16


def test_vis_no_predicates_ships_whole_table(server):
    result = server.vis(VisRequest("A", ()))
    assert len(result.ids) == 100


def test_vis_requests_are_audited(server):
    server.vis(VisRequest("A", ()))
    log = server.token.channel.audit_outbound()
    assert log[-1].kind == "vis_request"


# ---------------------------------------------------------------------------
# The visible index: held to the scan, and to its work bound
# ---------------------------------------------------------------------------
#
# ``UntrustedEngine._matcher`` -- one closure call per row of the whole
# table -- is the specification of a visible selection.  The per-column
# sorted index must give the same answer, element for element and in
# order, whatever happened to the table in between.

INDEX_DDL = ["CREATE TABLE A (id int, v1 int, v2 char(8), v3 float, "
             "h1 int HIDDEN)"]
COLUMNS = ("v1", "v2", "v3")
NAN = float("nan")


def scan(engine, rows, predicates):
    """The specification: the compiled matcher over every row."""
    match = engine._matcher("A", predicates)
    return [rid for rid, row in enumerate(rows)
            if match is None or match(row)]


def assert_answers_equal_the_scan(engine, rows, predicates, columns):
    ids = scan(engine, rows, predicates)
    positions = [COLUMNS.index(c) for c in columns]
    tuples = [(rid, *(rows[rid][p] for p in positions)) for rid in ids]
    assert engine.select_ids("A", predicates) == ids
    assert repr(engine.project("A", ids, columns)) == repr(tuples)


def random_rows(rng, n, domain, nan_share):
    """``n`` rows over ``domain`` distinct values per column (so
    duplicates abound); ``nan_share`` of the floats are NaN."""
    return [(rng.randrange(domain) - domain // 2,
             f"s{rng.randrange(domain):03d}"[:8],
             NAN if rng.random() < nan_share
             else rng.randrange(domain) / 2)
            for _ in range(n)]


@st.composite
def predicates_st(draw, domain):
    def constant(column):
        k = draw(st.integers(min_value=-1, max_value=domain))
        if column == "v1":
            return k - domain // 2
        if column == "v2":
            return f"s{k:03d}"[:8] if k >= 0 else ""
        return draw(st.sampled_from([k / 2, k / 2 + 0.25, NAN]))

    predicates = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        column = draw(st.sampled_from(COLUMNS))
        op = draw(st.sampled_from(
            ["=", "<", "<=", ">", ">=", "between", "in"]))
        if op == "in":
            values = tuple(constant(column) for _ in range(
                draw(st.integers(min_value=0, max_value=4))))
            predicates.append((column, Predicate("in", values=values)))
        elif op == "between":   # bounds drawn apart: may be inverted
            predicates.append((column, Predicate(
                "between", constant(column), value2=constant(column))))
        else:
            predicates.append((column, Predicate(op, constant(column))))
    return predicates


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_index_answers_equal_the_scan_under_every_table_change(data):
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    domain = data.draw(st.sampled_from([1, 4, 40, 4000]), label="domain")
    nan_share = data.draw(st.sampled_from([0.0, 0.0, 0.01]), label="nan")
    n = data.draw(st.sampled_from([0, 1, 2, 7, 300, 3000]), label="rows")
    engine = UntrustedEngine(schema_from_sql(INDEX_DDL))
    rows = random_rows(rng, n, domain, nan_share)
    engine.load("A", rows)

    def check():
        for _ in range(3):
            columns = data.draw(
                st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3,
                         unique=True), label="columns")
            assert_answers_equal_the_scan(
                engine, rows, data.draw(predicates_st(domain)), columns)

    check()   # builds indexes that every later step must keep honest
    for _ in range(data.draw(st.integers(0, 5), label="steps")):
        step = data.draw(st.sampled_from(
            ["load", "load-many", "compact", "truncate", "image"]))
        if step == "load":          # a short tail, scanned
            more = random_rows(rng, rng.randrange(1, 4), domain, nan_share)
            engine.load("A", more)
            rows += more
        elif step == "load-many":   # a tail past the fold-in threshold
            more = random_rows(rng, len(rows) // 4 + 1, domain, nan_share)
            engine.load("A", more)
            rows += more
        elif step == "compact":
            dead = {rid for rid in range(len(rows)) if rng.random() < 0.3}
            assert engine.compact("A", sorted(dead)) == len(dead)
            rows = [r for rid, r in enumerate(rows) if rid not in dead]
        elif step == "truncate":
            keep = rng.randrange(len(rows) + 1)
            engine.truncate("A", keep)
            del rows[keep:]
            # what a rollback is followed by: other rows at the same ids
            more = random_rows(rng, rng.randrange(3), domain, nan_share)
            engine.load("A", more)
            rows += more
        else:                       # durable image round trip
            engine = pickle.loads(pickle.dumps(engine))
            # ``in`` matches a NaN by identity, so the specification
            # must scan the very objects the engine now holds
            rows = list(engine._rows["A"])
        assert engine.n_rows("A") == len(rows)
        check()


def test_unorderable_column_falls_back_to_the_scan():
    """None and ints do not order: no index, same answers, no error."""
    engine = UntrustedEngine(schema_from_sql(INDEX_DDL))
    rows = [(None if i % 7 == 0 else i % 5, "x", 0.0) for i in range(50)]
    engine.load("A", rows)
    for predicates in ([("v1", Predicate("=", 3))],
                       [("v1", Predicate("=", None))],
                       [("v1", Predicate("in", values=(None, 1)))]):
        engine.rows_examined = 0
        assert engine.select_ids("A", predicates) == scan(
            engine, rows, predicates)
        assert engine.rows_examined == len(rows)
    with pytest.raises(TypeError):     # exactly what the scan does
        engine.select_ids("A", [("v1", Predicate("<", 3))])


def test_a_lone_nan_is_not_indexed():
    """One row and its float a NaN: no pair of keys to compare, yet
    the column does not order, so ``v3 = 0.0`` matches nothing."""
    engine = UntrustedEngine(schema_from_sql(INDEX_DDL))
    engine.load("A", [(0, "s000", NAN)])
    for p in (Predicate("=", 0.0), Predicate("<=", 1.0)):
        assert engine.select_ids("A", [("v3", p)]) == []


def test_constant_of_another_type_is_left_to_the_scan(engine):
    assert engine.select_ids("A", [("v1", Predicate("=", "3"))]) == []
    with pytest.raises(TypeError):
        engine.select_ids("A", [("v1", Predicate("<", "3"))])
    # ... whatever a second predicate's span says: an empty one must not
    # answer [] where the scan raises on the first row
    foreign, nomatch = (("v1", Predicate("<", "3")),
                        ("v2", Predicate("=", "nomatch")))
    rows = [(i % 10, f"s{i % 3}") for i in range(100)]
    engine.select_ids("A", [nomatch])       # both indexes are built
    with pytest.raises(TypeError):
        scan(engine, rows, [foreign, nomatch])
    with pytest.raises(TypeError):
        engine.select_ids("A", [foreign, nomatch])
    # in the other order the scan never reaches the foreign comparison
    assert scan(engine, rows, [nomatch, foreign]) == []
    assert engine.select_ids("A", [nomatch, foreign]) == []


def test_rows_examined_is_bounded_by_the_answer_not_the_table():
    """The work-count guard: a silent fall-back to scanning is a
    regression no correctness test sees.  ``rows_examined`` may exceed
    the answer by the unindexed tail and a logarithmic term only; it
    equals the table's cardinality in the documented scan cases."""
    n = 20_000
    rng = random.Random(5)
    engine = UntrustedEngine(schema_from_sql(INDEX_DDL))
    engine.load("A", [(rng.randrange(1000), "x", NAN if i == 0 else 1.0)
                      for i in range(n)])
    slack = 2 * math.log2(n)

    def examined(predicates):
        before = engine.rows_examined
        ids = engine.select_ids("A", predicates)
        return engine.rows_examined - before, len(ids)

    equality = [("v1", Predicate("=", 123))]
    one_percent = [("v1", Predicate("<", 10))]
    examined(equality)                       # builds the index
    for predicates in (equality, one_percent):
        work, answer = examined(predicates)
        assert 0 < answer <= work <= answer + slack
    # a second predicate filters the narrowest span's candidates only
    work, answer = examined(equality + [("v2", Predicate("=", "x"))])
    assert answer <= work <= 2 * answer + slack
    # however wide the span, there is no cut-over to the scan
    work, answer = examined([("v1", Predicate(">=", 100))])
    assert 0.8 * n < answer == work
    # appended rows are scanned until they are folded in ...
    engine.load("A", [(500, "x", 1.0)] * 10)
    work, answer = examined(one_percent)
    assert answer + 10 <= work <= answer + 10 + slack
    # ... which a tail beyond the fold-in share triggers
    engine.load("A", [(500, "x", 1.0)] * (n // 4))
    work, answer = examined(one_percent)
    assert work <= answer + slack

    # the documented full scans, and only those, examine every row
    total = engine.n_rows("A")
    for predicates in (
            [],                                       # no predicate
            [("v3", Predicate("=", 1.0))],            # NaN: unorderable
            [("v1", Predicate("=", "123"))],          # incomparable
            [("v1", Predicate("<=", NAN))]):          # NaN constant
        work, _ = examined(predicates)
        assert work == total
