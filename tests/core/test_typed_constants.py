"""Typed constants: every statement either answers like the oracle or
raises ``BindError`` -- on both sides of the trust boundary alike.

The matrix is column type x visible/hidden x operator x constant kind,
as a literal and as ``?``, for SELECT and DELETE, on one token and on
``ShardedGhostDB(2)``.  An accepted constant must give the rows a plain
Python comparison over the loaded values gives (and ``reference_query``
agrees); a rejected one must raise ``BindError`` before anything left
the token and before anything changed.  The six failures that motivated
the rule are pinned by name at the end.
"""

import itertools

import pytest

from repro import GhostDB
from repro.core.reference import ReferenceEngine
from repro.errors import BindError, GhostDBError
from repro.predicate import OPS, Predicate
from repro.shard import ShardedGhostDB
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

DDL = ("CREATE TABLE C (id int, vi int, vf float, vc char(4), "
       "hi int HIDDEN, hf float HIDDEN, hc char(4) HIDDEN)")
#: data columns in declaration order, with the kind of value they hold
COLUMNS = {"vi": "int", "vf": "float", "vc": "char",
           "hi": "int", "hf": "float", "hc": "char"}
ROWS = [(i % 5, (i % 4) / 2, "abc"[:i % 3 + 1],
         i % 5, (i % 4) / 2, "abc"[:i % 3 + 1]) for i in range(30)]

NAN = float("nan")
#: kind -> (python value, SQL literal or None when only ``?`` can say it)
CONSTANTS = {
    "int": (2, "2"),
    "integral float": (2.0, "2.0"),
    "non-integral float": (1.5, "1.5"),
    "nan": (NAN, None),
    "str": ("b", "'b'"),
    "over-width str": ("abcdefgh", "'abcdefgh'"),
    "none": (None, None),
    "bool": (True, None),
}
ACCEPTED = {"int": {"int", "integral float"},
            "float": {"int", "integral float", "non-integral float"},
            "char": {"str"}}
#: a second, always well-typed constant for ``between`` / ``in``
ANCHOR = {"int": (1, "1"), "float": (0.5, "0.5"), "char": ("ab", "'ab'")}


def make_db(shards=1):
    db = ShardedGhostDB(shards) if shards > 1 else GhostDB()
    db.execute(DDL)
    db.load("C", ROWS)
    db.build()
    return db


@pytest.fixture(scope="module", params=[1, 2], ids=["token", "fleet"])
def db(request):
    return make_db(request.param)


def outbound(db):
    """Number of messages that ever left the token(s)."""
    audit = db.audit_outbound()
    if isinstance(audit, dict):
        return sum(len(messages) for messages in audit.values())
    return len(audit)


def shapes(op, column_kind, kind):
    """``(where-template, (value, literal) pairs)`` variants placing
    the probed constant in every position the operator has."""
    probe, anchor = CONSTANTS[kind], ANCHOR[column_kind]
    if op == "between":
        return [("BETWEEN {} AND {}", (anchor, probe)),
                ("BETWEEN {} AND {}", (probe, anchor))]
    if op == "in":
        return [("IN ({})", (probe,)), ("IN ({}, {})", (anchor, probe))]
    return [(op + " {}", (probe,))]


def statements():
    """``(column, op, constants, accepted, where, params)``: each shape
    once with literals (when the constant has a literal form) and once
    with ``?`` placeholders."""
    for (column, column_kind), op, kind in itertools.product(
            COLUMNS.items(), OPS, CONSTANTS):
        ok = kind in ACCEPTED[column_kind]
        for template, pairs in shapes(op, column_kind, kind):
            constants = tuple(value for value, _ in pairs)
            literals = [literal for _, literal in pairs]
            where = f"C.{column} " + template
            if None not in literals:
                yield column, op, constants, ok, where.format(*literals), None
            yield (column, op, constants, ok,
                   where.format(*"?" * len(constants)), constants)


def expected_ids(column, op, constants):
    """What the statement means: plain comparisons over ``ROWS``, by an
    operator table that is not the one under test."""
    predicate = (Predicate("in", values=constants) if op == "in"
                 else Predicate(op, *constants))
    pos = list(COLUMNS).index(column)
    return [i for i, row in enumerate(ROWS)
            if ReferenceEngine._matches(predicate, row[pos])]


def test_select_matrix_equals_the_oracle_or_raises_bind_error(db):
    n = 0
    for column, op, constants, ok, where, params in statements():
        sql = "SELECT C.id FROM C WHERE " + where
        if ok:
            rows = db.execute(sql, params).rows
            assert rows == [(i,) for i in expected_ids(column, op,
                                                       constants)], sql
            if params is None:
                assert rows == db.reference_query(sql)[1], sql
        else:
            before = outbound(db)
            with pytest.raises(BindError) as exc:
                db.execute(sql, params)
            assert f"C.{column}" in str(exc.value), sql
            assert outbound(db) == before, sql
            if params is None:
                with pytest.raises(BindError):
                    db.reference_query(sql)
            else:
                with pytest.raises(BindError):
                    db.prepare(sql).execute(params)
        n += 1
    assert n > 500      # the matrix did not silently shrink


def test_delete_matrix_deletes_the_oracles_rows_or_raises_bind_error():
    for shards in (1, 2):
        db = make_db(shards)
        everything = "SELECT C.vi, C.vf, C.vc, C.hi, C.hf, C.hc FROM C"
        for column, op, constants, ok, where, params in statements():
            sql = "DELETE FROM C WHERE " + where
            if not ok:
                state = (outbound(db), db.table_generations)
                with pytest.raises(BindError):
                    db.execute(sql, params)
                assert (outbound(db), db.table_generations) == state, sql
                continue
            doomed = [ROWS[i] for i in expected_ids(column, op, constants)]
            assert db.execute(sql, params).rows_affected == len(doomed), sql
            live = db.reference_query(everything)[1]
            assert sorted(db.execute(everything).rows) == sorted(live), sql
            assert len(live) == len(ROWS) - len(doomed), sql
            # put equal rows back (under new ids): the live multiset of
            # values is ROWS again for the next statement
            if doomed:
                db.execute("INSERT INTO C VALUES " + ", ".join(
                    "(?, ?, ?, ?, ?, ?)" for _ in doomed),
                    params=[v for row in doomed for v in row])


# ---------------------------------------------------------------------------
# INSERT: every value is checked before anything mutates
# ---------------------------------------------------------------------------

P_DDL = ["CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, v int, "
         "h float HIDDEN, n char(4))",
         "CREATE TABLE C (id int, v int, h int HIDDEN)"]


def make_p_db(shards=1):
    db = ShardedGhostDB(shards) if shards > 1 else GhostDB()
    for ddl in P_DDL:
        db.execute(ddl)
    db.load("C", [(i, i % 2) for i in range(6)])
    db.load("P", [(i % 6, i, i / 2, "ab") for i in range(24)])
    db.build()
    return db


def p_state(db):
    shards = getattr(db, "shards", [db])
    return (db.table_generations, outbound(db),
            [s.untrusted.n_rows("P") for s in shards],
            [s.storage_report() for s in shards])


@pytest.mark.parametrize("shards", [1, 2], ids=["token", "fleet"])
@pytest.mark.parametrize("sql, params", [
    ("INSERT INTO P VALUES (1, 'oops', 1.0, 'ab')", None),
    ("INSERT INTO P VALUES (1, 5, 'x', 'ab')", None),
    ("INSERT INTO P VALUES (1, 5, 1.0, 'toolongname')", None),
    ("INSERT INTO P VALUES (1, 2.5, 1.0, 'ab')", None),
    ("INSERT INTO P VALUES (1, 5, 1.0, 7)", None),
    ("INSERT INTO P VALUES (1, 5, 1.0, 'ab'), (1, 'oops', 1.0, 'ab')", None),
    ("INSERT INTO P VALUES (1, ?, 1.0, 'ab')", (True,)),
    ("INSERT INTO P VALUES (1, 5, ?, 'ab')", (NAN,)),
    ("INSERT INTO P VALUES (1, 5, 1.0, ?)", (None,)),
    ("INSERT INTO P VALUES (1, ?, 1.0, 'ab')", (2 ** 31,)),
])
def test_ill_typed_insert_is_refused_whole(shards, sql, params):
    db = make_p_db(shards)
    before = p_state(db)
    with pytest.raises(GhostDBError):
        db.execute(sql, params)
    assert p_state(db) == before
    # no recover() needed: the table still reads and still takes rows
    probe = "SELECT P.id FROM P WHERE P.v < 7"
    assert db.execute(probe).rows == db.reference_query(probe)[1]
    db.execute("INSERT INTO P VALUES (1, 3.0, 2, 'cd')")    # 3.0 is 3
    assert len(db.execute(probe).rows) == 8
    assert db.execute(probe).rows == db.reference_query(probe)[1]


# ---------------------------------------------------------------------------
# the six measurements that motivated the rule, by name
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def syn():
    return build_synthetic(SyntheticConfig(scale=0.001, full_indexing=True))


def test_probe_delete_on_hidden_int_with_fraction_deletes_nothing(syn):
    """Was: ``h3 < 1.5`` tombstoned 1 000 rows where 2 000 match."""
    gens = syn.table_generations
    with pytest.raises(BindError):
        syn.execute("DELETE FROM T0 WHERE h3 < 1.5")
    assert syn.table_generations == gens
    assert syn.catalog.live_rows("T0") == syn.catalog.n_rows("T0")


@pytest.mark.parametrize("where", ["T1.h1 < 1.5", "T1.h1 = 1.5",
                                   "T1.h1 BETWEEN 0.5 AND 1.5"])
def test_probe_hidden_int_with_fraction_is_not_truncated(syn, where):
    """Was: 100 / 100 / 200 rows against the oracle's 200 / 0 / 100."""
    sql = "SELECT T1.id FROM T1 WHERE " + where
    for run in (syn.execute, syn.reference_query):
        with pytest.raises(BindError):
            run(sql)
    # the integral spelling of the same bound is the oracle's answer
    whole = "SELECT T1.id FROM T1 WHERE T1.h1 < 2.0"
    assert syn.execute(whole).rows == syn.reference_query(whole)[1]
    assert len(syn.execute(whole).rows) == 200


def test_probe_hidden_int_does_not_parse_a_string(syn):
    """Was: ``h1 < '1'`` answered 100 rows where the oracle raises."""
    with pytest.raises(BindError):
        syn.execute("SELECT T1.id FROM T1 WHERE T1.h1 < '1'")


@pytest.mark.parametrize("where, params", [
    ("T1.v1 < 'abc'", None),        # was a bare TypeError (Untrusted)
    ("T1.h1 < 'abc'", None),        # was a bare ValueError (key codec)
    ("T1.h1 = ?", (None,)),         # was a bare TypeError (key codec)
])
def test_probe_no_bare_exception_escapes(syn, where, params):
    with pytest.raises(BindError):
        syn.execute("SELECT T1.id FROM T1 WHERE " + where, params)


def test_probe_half_applied_insert_cannot_poison_a_table():
    """Was: 'oops' reached the heap and Untrusted, then the sketch
    raised a bare TypeError, and every later ``P.v < k`` failed."""
    db = make_p_db()
    with pytest.raises(BindError):
        db.execute("INSERT INTO P VALUES (1, 'oops', 1.0, 'ab')")
    assert db.untrusted.n_rows("P") == db.catalog.n_rows("P") == 24
    assert len(db.execute("SELECT P.id FROM P WHERE P.v < 7").rows) == 7


def test_probe_visible_insert_values_are_checked_too():
    """Was: 'toolongname' into char(4) and 2.5 into a visible int were
    accepted; a hidden 'x' float escaped as a bare ValueError."""
    db = make_p_db()
    for row in ("(1, 5, 1.0, 'toolongname')", "(1, 2.5, 1.0, 'ab')",
                "(1, 5, 'x', 'ab')"):
        with pytest.raises(BindError):
            db.execute("INSERT INTO P VALUES " + row)
    assert db.catalog.n_rows("P") == 24
