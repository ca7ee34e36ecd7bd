"""Schema declaration: tables, HIDDEN columns, tree validation, DDL."""

from repro.schema.ddl import schema_from_sql, table_from_ast
from repro.schema.model import Column, Schema, Table

__all__ = [
    "Column",
    "Schema",
    "Table",
    "schema_from_sql",
    "table_from_ast",
]
