"""Unit tests for the SQL lexer and parser."""

import pytest

from repro.errors import SqlSyntaxError
from repro.sql import ast
from repro.sql.lexer import leading_keyword, normalize_sql, tokenize
from repro.sql.parser import parse


def test_tokenize_basics():
    toks = tokenize("SELECT a.b, 12 FROM t WHERE x >= 'hi'")
    kinds = [t.kind for t in toks]
    assert kinds == ["kw", "ident", "op", "ident", "op", "number", "kw",
                     "ident", "kw", "ident", "op", "string", "eof"]


def test_tokenize_unterminated_string():
    with pytest.raises(SqlSyntaxError,
                       match="^unterminated string at position 7$"):
        tokenize("SELECT 'oops")


def test_tokenize_bad_char():
    with pytest.raises(SqlSyntaxError,
                       match="^unexpected character '@' at position 7$"):
        tokenize("SELECT @")
    with pytest.raises(SqlSyntaxError, match="'!' at position 2$"):
        tokenize("a ! b")


def lexed(text):
    return [(t.kind, t.value, t.pos) for t in tokenize(text)]


def test_tokenize_positions_and_keyword_case():
    assert lexed("select T.a  From t") == [
        ("kw", "SELECT", 0), ("ident", "T", 7), ("op", ".", 8),
        ("ident", "a", 9), ("kw", "FROM", 12), ("ident", "t", 17),
        ("eof", "", 18)]


def test_tokenize_negative_number_only_after_operator_or_keyword():
    assert lexed("-5")[0] == ("number", "-5", 0)
    assert lexed("x = -5")[2] == ("number", "-5", 4)
    assert lexed("IN (-1, -2)")[2:5] == [
        ("number", "-1", 4), ("op", ",", 6), ("number", "-2", 8)]
    assert lexed("AND -2.5")[1] == ("number", "-2.5", 4)
    for text, pos in (("(1) -5", 4), ("x -5", 2), ("1 -5", 2),
                      ("'s' -5", 4), ("x = - 5", 4)):
        with pytest.raises(SqlSyntaxError,
                           match=f"unexpected character '-' at position "
                                 f"{pos}$"):
            tokenize(text)


def test_tokenize_a_number_takes_one_dot_with_a_digit_after_it():
    assert lexed("1.5")[:1] == [("number", "1.5", 0)]
    assert lexed("1.")[:2] == [("number", "1", 0), ("op", ".", 1)]
    assert lexed("1.5.3")[:3] == [("number", "1.5", 0), ("op", ".", 3),
                                  ("number", "3", 4)]
    assert lexed("12ab")[:2] == [("number", "12", 0), ("ident", "ab", 2)]


def test_normalize_drops_a_trailing_semicolon_and_keeps_quotes():
    assert normalize_sql("select  a FROM t where b = ';' ;") == \
        "SELECT a FROM t WHERE b = ';'"
    assert lexed("SELECT a FROM t;")[-2] == ("op", ";", 15)
    assert normalize_sql("SELECT 'a b'") != normalize_sql("SELECT a b")


def test_leading_keyword_probes_one_token():
    assert leading_keyword("  select a FROM t") == "SELECT"
    assert leading_keyword("Insert INTO t VALUES (1)") == "INSERT"
    assert leading_keyword("SELECT 'unterminated") == "SELECT"
    for text in ("", "   ", "T0 SELECT", "@", "'s'", "-5"):
        assert leading_keyword(text) is None


def test_parse_paper_create_table():
    stmt = parse(
        "CREATE TABLE Patients (id int, name char(200) HIDDEN, age int, "
        "city char(100), bodymassindex float HIDDEN)"
    )
    assert isinstance(stmt, ast.CreateTable)
    assert stmt.name == "Patients"
    cols = {c.name: c for c in stmt.columns}
    assert cols["name"].hidden and cols["name"].char_size == 200
    assert not cols["age"].hidden
    assert cols["bodymassindex"].type_name == "FLOAT"


def test_parse_references_clause():
    stmt = parse("CREATE TABLE M (id int, pid int HIDDEN REFERENCES P)")
    assert stmt.columns[1].references == "P"
    assert stmt.columns[1].hidden


def test_parse_simple_select():
    stmt = parse("SELECT T0.id FROM T0 WHERE T0.h1 = 5")
    assert isinstance(stmt, ast.SelectQuery)
    assert stmt.tables == ("T0",)
    (pred,) = stmt.predicates
    assert isinstance(pred, ast.Comparison)
    assert pred.op == "=" and pred.value == 5


def test_parse_paper_example_query():
    stmt = parse(
        "SELECT D.id, P.id, M.id FROM Measurements, Doctors, Patients "
        "WHERE Measurements.pid = Patients.id "
        "AND Patients.did = Doctors.id "
        "AND Doctors.specialty = 'Psychiatrist' "
        "AND Patients.bodymassindex > 25"
    )
    joins = [p for p in stmt.predicates if isinstance(p, ast.JoinPredicate)]
    sels = [p for p in stmt.predicates if isinstance(p, ast.Comparison)]
    assert len(joins) == 2 and len(sels) == 2
    assert sels[0].value == "Psychiatrist"
    assert sels[1].op == ">" and sels[1].value == 25


def test_parse_between_and_in():
    stmt = parse(
        "SELECT a FROM t WHERE b BETWEEN 1 AND 9 AND c IN (1, 2, 3)"
    )
    between, inlist = stmt.predicates
    assert isinstance(between, ast.BetweenPredicate)
    assert (between.low, between.high) == (1, 9)
    assert isinstance(inlist, ast.InPredicate)
    assert tuple(inlist.values) == (1, 2, 3)


def test_parse_star_variants():
    assert isinstance(parse("SELECT * FROM t").select[0], ast.Star)
    item = parse("SELECT t.* FROM t").select[0]
    assert isinstance(item, ast.Star) and item.table == "t"


def test_parse_aggregates():
    stmt = parse("SELECT COUNT(*), AVG(t.x) FROM t GROUP BY t.g")
    count, avg = stmt.select
    assert count.func == "COUNT" and count.arg is None
    assert avg.func == "AVG" and avg.arg.column == "x"
    assert stmt.group_by[0].column == "g"


def test_parse_negative_and_float_literals():
    stmt = parse("SELECT a FROM t WHERE b > -5 AND c < 2.5")
    p1, p2 = stmt.predicates
    assert p1.value == -5
    assert p2.value == 2.5


def test_parse_non_equi_join_rejected():
    with pytest.raises(SqlSyntaxError):
        parse("SELECT a FROM t, u WHERE t.x < u.y")


def test_parse_sum_star_rejected():
    with pytest.raises(SqlSyntaxError):
        parse("SELECT SUM(*) FROM t")


def test_parse_garbage_rejected():
    with pytest.raises(SqlSyntaxError):
        parse("DROP TABLE t")
    with pytest.raises(SqlSyntaxError):
        parse("SELECT FROM t")
    with pytest.raises(SqlSyntaxError):
        parse("SELECT a FROM t WHERE")
    with pytest.raises(SqlSyntaxError):
        parse("INSERT INTO t VALUES 1, 2")
    with pytest.raises(SqlSyntaxError):
        parse("DELETE t WHERE a = 1")


def test_parse_insert():
    stmt = parse("INSERT INTO t VALUES (1, 'x', 2.5), (-3, 'y', ?)")
    assert isinstance(stmt, ast.InsertStatement)
    assert stmt.table == "t"
    assert stmt.columns is None
    assert stmt.rows[0] == (1, "x", 2.5)
    assert stmt.rows[1][0] == -3
    assert isinstance(stmt.rows[1][2], ast.Parameter)


def test_parse_insert_with_column_list():
    stmt = parse("INSERT INTO t (a, b) VALUES (1, 2)")
    assert stmt.columns == ("a", "b")
    assert stmt.rows == ((1, 2),)


def test_parse_delete():
    stmt = parse("DELETE FROM t WHERE v < 5 AND h IN (1, 2)")
    assert isinstance(stmt, ast.DeleteStatement)
    assert stmt.table == "t"
    assert len(stmt.predicates) == 2
    bare = parse("DELETE FROM t")
    assert bare.predicates == ()


def test_trailing_semicolon_ok():
    assert isinstance(parse("SELECT a FROM t;"), ast.SelectQuery)
