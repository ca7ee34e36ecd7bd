"""Unit tests for the binder: resolution, join-tree validation,
visible/hidden classification and anchor selection."""

import pytest

from repro.errors import BindError
from repro.schema.ddl import schema_from_sql
from repro.sql.binder import Binder

DDL = [
    """CREATE TABLE T0 (id int,
        fk1 int HIDDEN REFERENCES T1, fk2 int HIDDEN REFERENCES T2,
        v1 int, h3 int HIDDEN)""",
    """CREATE TABLE T1 (id int,
        fk11 int HIDDEN REFERENCES T11, fk12 int HIDDEN REFERENCES T12,
        v1 int, h1 int HIDDEN)""",
    "CREATE TABLE T2 (id int, v1 int, h1 int HIDDEN)",
    "CREATE TABLE T11 (id int, v1 int, h1 int HIDDEN)",
    "CREATE TABLE T12 (id int, v1 int, h2 int HIDDEN)",
]

PAPER_Q = (
    "SELECT T0.id FROM T0, T1, T12 "
    "WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id "
    "AND T1.v1 > 10 AND T12.h2 = 5 AND T0.h3 = 7"
)


@pytest.fixture
def binder():
    return Binder(schema_from_sql(DDL))


def test_bind_paper_query(binder):
    bound = binder.bind_sql(PAPER_Q)
    assert bound.anchor == "T0"
    assert bound.tables == ("T0", "T1", "T12")
    vis = bound.visible_selections()
    hid = bound.hidden_selections()
    assert [(s.table, s.column.name) for s in vis] == [("T1", "v1")]
    assert {(s.table, s.column.name) for s in hid} == {("T12", "h2"),
                                                       ("T0", "h3")}


def test_anchor_is_topmost_table(binder):
    bound = binder.bind_sql(
        "SELECT T1.id FROM T1, T12 WHERE T1.fk12 = T12.id AND T12.h2 = 1"
    )
    assert bound.anchor == "T1"


def test_single_table_query(binder):
    bound = binder.bind_sql("SELECT T2.id FROM T2 WHERE T2.h1 = 3")
    assert bound.anchor == "T2"
    assert bound.hidden_selections("T2")


def test_missing_join_predicate_rejected(binder):
    with pytest.raises(BindError):
        binder.bind_sql("SELECT T0.id FROM T0, T1 WHERE T1.h1 = 1")


def test_disconnected_tables_rejected(binder):
    with pytest.raises(BindError):
        binder.bind_sql(
            "SELECT T11.id FROM T11, T12 WHERE T11.h1 = 1 AND T12.h2 = 2"
        )


def test_non_fk_join_rejected(binder):
    with pytest.raises(BindError):
        binder.bind_sql("SELECT T0.id FROM T0, T2 WHERE T0.fk1 = T2.id")
    with pytest.raises(BindError):
        binder.bind_sql("SELECT T0.id FROM T0, T1 WHERE T0.v1 = T1.v1")


def test_unqualified_columns_resolved(binder):
    bound = binder.bind_sql("SELECT id FROM T2 WHERE h1 = 3")
    assert bound.projections[0].table == "T2"


def test_ambiguous_column_rejected(binder):
    with pytest.raises(BindError):
        binder.bind_sql(
            "SELECT v1 FROM T0, T1 WHERE T0.fk1 = T1.id"
        )


def test_unknown_table_and_column_rejected(binder):
    with pytest.raises(BindError):
        binder.bind_sql("SELECT T9.id FROM T9")
    with pytest.raises(BindError):
        binder.bind_sql("SELECT T2.zzz FROM T2")


def test_duplicate_from_rejected(binder):
    with pytest.raises(BindError):
        binder.bind_sql("SELECT T2.id FROM T2, T2")


def test_star_expansion(binder):
    bound = binder.bind_sql("SELECT T2.* FROM T2")
    names = [p.column.name for p in bound.projections]
    assert names == ["id", "v1", "h1"]


def test_selection_on_id_rejected(binder):
    with pytest.raises(BindError):
        binder.bind_sql("SELECT T2.id FROM T2 WHERE T2.id = 4")


def test_aggregate_binding(binder):
    bound = binder.bind_sql(
        "SELECT T2.v1, COUNT(*) FROM T2 WHERE T2.h1 = 1 GROUP BY T2.v1"
    )
    assert bound.is_aggregate
    assert bound.aggregates[0].func == "COUNT"
    assert bound.group_by[0].column.name == "v1"


def test_bare_column_with_aggregate_rejected(binder):
    with pytest.raises(BindError):
        binder.bind_sql("SELECT T2.v1, COUNT(*) FROM T2")


def test_group_by_without_aggregate_rejected(binder):
    with pytest.raises(BindError):
        binder.bind_sql("SELECT T2.v1 FROM T2 GROUP BY T2.v1")
