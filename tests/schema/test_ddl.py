"""Unit tests for DDL translation."""

import pytest

from repro.errors import SchemaError
from repro.schema.ddl import schema_from_sql, table_from_ast
from repro.sql.parser import parse
from repro.storage.codec import CharType, FloatType, IntType


def table_from_sql(sql):
    return table_from_ast(parse(sql))


def test_paper_create_table_translates():
    t = table_from_sql(
        "CREATE TABLE Patients (id int, name char(200) HIDDEN, age int, "
        "city char(100), bodymassindex float HIDDEN)"
    )
    assert t.name == "Patients"
    assert isinstance(t.column("name").type, CharType)
    assert t.column("name").type.size == 200
    assert t.column("name").hidden
    assert isinstance(t.column("bodymassindex").type, FloatType)
    assert not t.column("age").hidden


def test_int_size_variants():
    t = table_from_sql(
        "CREATE TABLE X (id int, a smallint, b bigint, c integer)"
    )
    assert t.column("a").type == IntType(2)
    assert t.column("b").type == IntType(8)
    assert t.column("c").type == IntType(4)


def test_references_clause_translates():
    t = table_from_sql(
        "CREATE TABLE M (id int, pid int HIDDEN REFERENCES P)"
    )
    assert t.column("pid").references == "P"


def test_char_without_size_rejected_at_parse():
    from repro.errors import SqlSyntaxError
    with pytest.raises(SqlSyntaxError):
        table_from_sql("CREATE TABLE X (id int, a char)")


def test_select_statement_rejected():
    with pytest.raises(SchemaError):
        schema_from_sql(["SELECT a FROM b"])


def test_schema_from_sql_validates_tree():
    schema = schema_from_sql([
        "CREATE TABLE A (id int, fk int HIDDEN REFERENCES B, v int)",
        "CREATE TABLE B (id int, v int)",
    ])
    assert schema.root == "A"
    with pytest.raises(SchemaError):
        schema_from_sql([
            "CREATE TABLE A (id int, fk int HIDDEN REFERENCES B)",
        ])


def test_primary_key_and_not_null_tolerated():
    t = table_from_sql(
        "CREATE TABLE X (id int PRIMARY KEY, a int NOT NULL)"
    )
    assert t.column("a").type == IntType(4)
