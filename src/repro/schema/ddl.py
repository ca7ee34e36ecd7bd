"""DDL translation: CREATE TABLE statements to schema objects.

The administration interface of GhostDB is deliberately minimal: the
only change to standard SQL is the ``HIDDEN`` annotation on columns,
e.g.::

    CREATE TABLE Patients (
        id INT,
        name CHAR(200) HIDDEN,
        age INT,
        city CHAR(100),
        bodymassindex FLOAT HIDDEN
    )

``REFERENCES`` declares the tree-shaping foreign keys (they must be
``HIDDEN`` too -- joins happen on Secure).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SchemaError
from repro.schema.model import Column, Schema, Table
from repro.sql import ast
from repro.sql.parser import parse
from repro.storage.codec import CharType, ColumnType, FloatType, IntType

_TYPE_MAP = {
    "INT": IntType(4),
    "INTEGER": IntType(4),
    "SMALLINT": IntType(2),
    "BIGINT": IntType(8),
    "FLOAT": FloatType(),
}


def _column(cdef: ast.ColumnDef) -> Column:
    if cdef.type_name == "CHAR":
        if not cdef.char_size:
            raise SchemaError(f"CHAR column {cdef.name!r} needs a size")
        ctype: ColumnType = CharType(cdef.char_size)
    else:
        try:
            ctype = _TYPE_MAP[cdef.type_name]
        except KeyError:
            raise SchemaError(
                f"unsupported type {cdef.type_name!r}"
            ) from None
    return Column(cdef.name, ctype, hidden=cdef.hidden,
                  references=cdef.references)


def table_from_ast(stmt: ast.CreateTable) -> Table:
    """Translate one parsed CREATE TABLE statement."""
    return Table(stmt.name, [_column(c) for c in stmt.columns])


def schema_from_sql(statements: Sequence[str]) -> Schema:
    """Build a validated schema from CREATE TABLE statements."""
    tables = []
    for sql in statements:
        parsed = parse(sql)
        if not isinstance(parsed, ast.CreateTable):
            raise SchemaError("expected a CREATE TABLE statement")
        tables.append(table_from_ast(parsed))
    return Schema(tables)
