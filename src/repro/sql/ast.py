"""Abstract syntax trees for the SQL dialect."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

Value = Union[int, float, str]


@dataclass(frozen=True)
class Parameter:
    """A ``?`` placeholder in a predicate, filled in at execution time.

    Parameters are numbered left to right in the statement text; a
    prepared statement substitutes the ``index``-th supplied value.
    """

    index: int


@dataclass(frozen=True)
class ColumnRef:
    """``table.column`` (the table qualifier may be omitted in source)."""

    table: Optional[str]
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Star:
    """``*`` or ``table.*`` in a select list."""

    table: Optional[str] = None


@dataclass(frozen=True)
class Aggregate:
    """``func(column)`` or ``COUNT(*)`` in a select list."""

    func: str                     # COUNT / SUM / MIN / MAX / AVG
    arg: Optional[ColumnRef]      # None for COUNT(*)


SelectItem = Union[ColumnRef, Star, Aggregate]


@dataclass(frozen=True)
class Comparison:
    """``col op literal`` -- a selection predicate."""

    column: ColumnRef
    op: str                       # = < <= > >=
    value: Value


@dataclass(frozen=True)
class BetweenPredicate:
    """``col BETWEEN low AND high`` (inclusive both ends)."""

    column: ColumnRef
    low: Value
    high: Value


@dataclass(frozen=True)
class InPredicate:
    """``col IN (v1, v2, ...)``."""

    column: ColumnRef
    values: Sequence[Value]


@dataclass(frozen=True)
class JoinPredicate:
    """``a.x = b.y`` -- an equi-join between two columns."""

    left: ColumnRef
    right: ColumnRef


Predicate = Union[Comparison, BetweenPredicate, InPredicate, JoinPredicate]


@dataclass(frozen=True)
class OrderItem:
    """One ``ORDER BY`` key: a column plus its direction."""

    column: ColumnRef
    desc: bool = False


@dataclass(frozen=True)
class SelectQuery:
    """One parsed SELECT: items, tables, predicates and the optional
    DISTINCT / GROUP BY / ORDER BY / LIMIT clauses."""

    select: Sequence[SelectItem]
    tables: Sequence[str]
    predicates: Sequence[Predicate] = field(default_factory=tuple)
    group_by: Sequence[ColumnRef] = field(default_factory=tuple)
    order_by: Sequence[OrderItem] = field(default_factory=tuple)
    limit: Optional[int] = None
    offset: int = 0
    distinct: bool = False


@dataclass(frozen=True)
class InsertStatement:
    """``INSERT INTO t [(col, ...)] VALUES (...), (...)``.

    ``columns`` is ``None`` when the column list is omitted (values are
    then given in declaration order of the non-id columns).  Values may
    be :class:`Parameter` placeholders, filled at execution time.
    """

    table: str
    columns: Optional[Sequence[str]]
    rows: Sequence[Sequence[Union[Value, Parameter]]]


@dataclass(frozen=True)
class DeleteStatement:
    """``DELETE FROM t [WHERE pred AND ...]`` (single-table)."""

    table: str
    predicates: Sequence[Predicate] = field(default_factory=tuple)


@dataclass(frozen=True)
class ColumnDef:
    """One column of a ``CREATE TABLE``: type plus annotations."""

    name: str
    type_name: str                # INT / SMALLINT / BIGINT / FLOAT / CHAR
    char_size: Optional[int] = None
    hidden: bool = False
    references: Optional[str] = None


@dataclass(frozen=True)
class CreateTable:
    """``CREATE TABLE name (coldef, ...)``."""

    name: str
    columns: Sequence[ColumnDef]
