"""Semantic analysis: bind a parsed statement to the schema.

For SELECT, the binder resolves column references, validates that the
queried tables form a connected subtree joined along foreign-key
edges, picks the *anchor* table (the topmost queried table -- the root
of the queried subtree, whose IDs the QEPSJ produces), and classifies
each selection predicate as Visible (computable by Untrusted) or
Hidden (climbing-index lookup on Secure).  Each selection becomes one
:class:`repro.predicate.Predicate` whose constants are typed against
the column here (:func:`typed_value`: literals at bind time, ``?``
values when :meth:`BoundSelection.substitute` fills them), so both
sides of the trust boundary evaluate the same well-typed comparison.

For DML, it normalizes INSERT rows into declaration order and splits
them along the trust boundary (visible half / hidden half / foreign
keys), and binds DELETE predicates exactly like SELECT selections.
An INSERT's hidden values are *data*, not query text: the binder
precomputes a redacted ``public_text`` (hidden slots masked) that is
the only form of the statement allowed to leave the token.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import BindError, StorageError
from repro.predicate import Predicate
from repro.schema.model import Column, Schema
from repro.sql import ast
from repro.sql.parser import parse


@dataclass(frozen=True)
class BoundColumn:
    """A column reference resolved against the schema."""

    table: str
    column: Column

    @property
    def is_id(self) -> bool:
        return self.column.is_id

    def __str__(self) -> str:
        return f"{self.table}.{self.column.name}"


def typed_value(table: str, column: Column, value):
    """``value`` as ``table.column`` holds it, by the column type's
    ``typed`` rule: the one place a statement's constants and inserted
    values are checked.  A ``?`` placeholder passes through; it is
    typed when :meth:`BoundSelection.substitute` fills it."""
    if isinstance(value, ast.Parameter):
        return value
    try:
        return column.type.typed(value)
    except StorageError as exc:
        raise BindError(f"{table}.{column.name}: {exc}") from None


@dataclass(frozen=True)
class BoundSelection:
    """One selection predicate, classified, its constants typed."""

    table: str
    column: Column
    predicate: Predicate

    @property
    def visible(self) -> bool:
        return not self.column.hidden

    def substitute(self, params: Sequence) -> "BoundSelection":
        """Fill (and type) this selection's ``?`` placeholders."""
        def fill(value):
            if isinstance(value, ast.Parameter):
                return typed_value(self.table, self.column,
                                   params[value.index])
            return value
        return BoundSelection(self.table, self.column,
                              self.predicate.map(fill))


@dataclass(frozen=True)
class BoundAggregate:
    """One aggregate call with its resolved argument."""

    func: str
    arg: Optional[BoundColumn]    # None for COUNT(*)


@dataclass(frozen=True)
class BoundOrderItem:
    """One resolved ``ORDER BY`` key with its direction."""

    column: BoundColumn
    desc: bool = False

    def describe(self) -> str:
        return f"{self.column} {'desc' if self.desc else 'asc'}"


class _Parameterized:
    """What the three bound statement kinds share about ``?``
    placeholders: the one unbound-placeholder error and the arity check
    every ``substitute`` starts with."""

    param_count: int

    def require_bound(self) -> None:
        """Raise unless every ``?`` placeholder has been substituted."""
        if self.param_count:
            raise BindError(
                f"statement has {self.param_count} unbound ? "
                f"placeholder(s): pass params"
            )

    def _check_arity(self, params: Sequence) -> None:
        if len(params) != self.param_count:
            if not params:
                self.require_bound()
            raise BindError(
                f"statement takes {self.param_count} parameter(s), "
                f"got {len(params)}"
            )


@dataclass(frozen=True)
class BoundQuery(_Parameterized):
    """A SELECT resolved against the schema, ready for planning.

    Carries the anchor table, the classified selections, the
    (possibly internally extended) projections, the aggregate and
    GROUP BY sets, and the ORDER BY / LIMIT clause.
    """

    sql: str
    tables: Tuple[str, ...]
    anchor: str
    selections: Tuple[BoundSelection, ...]
    projections: Tuple[BoundColumn, ...]
    aggregates: Tuple[BoundAggregate, ...] = ()
    group_by: Tuple[BoundColumn, ...] = ()
    order_by: Tuple[BoundOrderItem, ...] = ()
    limit: Optional[int] = None
    offset: int = 0
    #: SELECT DISTINCT: duplicate projected rows are dropped (stable,
    #: first occurrence wins) before ORDER BY / LIMIT apply
    distinct: bool = False
    #: trailing projections appended internally (sort keys, the anchor
    #: id the ordering operator maps rows by) -- stripped from the
    #: result after ORDER BY / LIMIT are applied
    internal_tail: int = 0
    param_count: int = 0

    @property
    def is_aggregate(self) -> bool:
        return bool(self.aggregates)

    @property
    def is_ordered(self) -> bool:
        """Whether the result needs an ordering pass (sort or truncate)."""
        return bool(self.order_by) or self.limit is not None \
            or self.offset > 0

    def substitute(self, params: Sequence) -> "BoundQuery":
        """Fill every ``?`` placeholder with the matching value.

        Returns a fully concrete :class:`BoundQuery` (``param_count``
        0) sharing everything but the selection predicates; with no
        placeholders the query itself is returned unchanged.
        """
        self._check_arity(params)
        if self.param_count == 0:
            return self
        return dataclasses.replace(
            self,
            selections=tuple(s.substitute(params)
                             for s in self.selections),
            param_count=0,
        )

    def visible_selections(self, table: Optional[str] = None
                           ) -> List[BoundSelection]:
        return [s for s in self.selections
                if s.visible and (table is None or s.table == table)]

    def hidden_selections(self, table: Optional[str] = None
                          ) -> List[BoundSelection]:
        return [s for s in self.selections
                if not s.visible and (table is None or s.table == table)]


def with_anchor_id_tail(bound: BoundQuery, schema: Schema
                        ) -> Tuple[BoundQuery, int, int]:
    """Fan a bound plan out for scatter execution: guarantee the
    anchor table's ``id`` column is projected.

    The scatter-gather executor merges per-shard row streams by
    anchor id (translated shard-local -> global), so every scattered
    fragment must carry that id -- even for aggregate and DISTINCT
    shapes, whose single-token pipelines never need it.  Returns
    ``(bound, aid_position, n_added)``: the (possibly extended) bound
    query, the projection position of the anchor id, and how many
    internal columns were appended (0 or 1).  Appended columns count
    into ``internal_tail`` so the ordinary result stripping removes
    them after the gather.
    """
    for i, col in enumerate(bound.projections):
        if col.table == bound.anchor and col.is_id:
            return bound, i, 0
    id_col = BoundColumn(bound.anchor,
                         schema.table(bound.anchor).column("id"))
    extended = dataclasses.replace(
        bound,
        projections=bound.projections + (id_col,),
        internal_tail=bound.internal_tail + 1,
    )
    return extended, len(bound.projections), 1


def _render_value(value) -> str:
    """Literal as it would appear in statement text."""
    if isinstance(value, ast.Parameter):
        return "?"
    if isinstance(value, str):
        return f"'{value}'"
    return str(value)


@dataclass(frozen=True)
class BoundInsert(_Parameterized):
    """One INSERT, normalized to declaration order and split along the
    trust boundary.

    ``rows`` holds full data-column tuples (possibly containing
    :class:`ast.Parameter` placeholders); ``public_text`` is the
    statement with every hidden value masked -- the only rendition of
    the insert that may cross the channel.
    """

    sql: str
    table: str
    rows: Tuple[Tuple, ...]          # data_columns order
    public_text: str
    param_count: int = 0

    def substitute(self, params: Sequence) -> "BoundInsert":
        """Fill every ``?`` placeholder with the matching value."""
        self._check_arity(params)
        if self.param_count == 0:
            return self
        rows = tuple(
            tuple(params[v.index] if isinstance(v, ast.Parameter) else v
                  for v in row)
            for row in self.rows
        )
        return dataclasses.replace(self, rows=rows, param_count=0)


@dataclass(frozen=True)
class BoundDelete(_Parameterized):
    """One DELETE: a single table plus classified selections."""

    sql: str
    table: str
    selections: Tuple[BoundSelection, ...]
    param_count: int = 0

    def substitute(self, params: Sequence) -> "BoundDelete":
        """Fill every ``?`` placeholder with the matching value."""
        self._check_arity(params)
        if self.param_count == 0:
            return self
        return dataclasses.replace(
            self,
            selections=tuple(s.substitute(params)
                             for s in self.selections),
            param_count=0,
        )


def _count_parameters(selections: Sequence[BoundSelection]) -> int:
    """Number of ``?`` placeholders referenced by the selections."""
    indices = [value.index for s in selections
               for value in s.predicate.constants()
               if isinstance(value, ast.Parameter)]
    return max(indices) + 1 if indices else 0


class Binder:
    """Binds :class:`ast.SelectQuery` objects against one schema."""

    def __init__(self, schema: Schema):
        self.schema = schema

    # ------------------------------------------------------------------
    def bind_sql(self, sql: str) -> BoundQuery:
        parsed = parse(sql)
        if not isinstance(parsed, ast.SelectQuery):
            raise BindError("expected a SELECT statement")
        return self.bind(parsed, sql)

    # ------------------------------------------------------------------
    def bind_insert(self, stmt: ast.InsertStatement,
                    sql: str = "") -> BoundInsert:
        if stmt.table not in self.schema.tables:
            raise BindError(f"unknown table {stmt.table!r}")
        table = self.schema.table(stmt.table)
        data_cols = table.data_columns
        if stmt.columns is None:
            order = list(range(len(data_cols)))
            names = [c.name for c in data_cols]
        else:
            names = list(stmt.columns)
            wanted = {c.name: i for i, c in enumerate(data_cols)}
            if len(set(names)) != len(names):
                raise BindError(f"duplicate column in INSERT: {names}")
            for name in names:
                if name == "id":
                    raise BindError(
                        "surrogate ids are assigned by GhostDB; do not "
                        "insert them explicitly"
                    )
                if name not in wanted:
                    raise BindError(
                        f"table {stmt.table!r} has no column {name!r}"
                    )
            if len(names) != len(data_cols):
                missing = [c.name for c in data_cols if c.name not in names]
                raise BindError(
                    f"INSERT INTO {stmt.table} must provide every data "
                    f"column; missing {missing}"
                )
            # position in the statement row for each declaration slot
            by_name = {n: i for i, n in enumerate(names)}
            order = [by_name[c.name] for c in data_cols]
        rows: List[Tuple] = []
        n_params = 0
        for row in stmt.rows:
            if len(row) != len(data_cols):
                raise BindError(
                    f"INSERT INTO {stmt.table}: expected {len(data_cols)} "
                    f"values, got {len(row)}"
                )
            normalized = tuple(row[i] for i in order)
            for value in normalized:
                if isinstance(value, ast.Parameter):
                    n_params = max(n_params, value.index + 1)
            rows.append(normalized)
        public_text = self._render_public_insert(stmt.table, data_cols,
                                                 rows)
        return BoundInsert(sql=sql, table=stmt.table, rows=tuple(rows),
                           public_text=public_text, param_count=n_params)

    @staticmethod
    def _render_public_insert(table: str, data_cols, rows) -> str:
        """The insert's statement text with hidden values masked.

        Visible values are headed to Untrusted storage anyway; hidden
        values are data and must never appear in outbound text.
        """
        parts = []
        for row in rows:
            rendered = [
                "?" if col.hidden else _render_value(value)
                for value, col in zip(row, data_cols)
            ]
            parts.append(f"({', '.join(rendered)})")
        cols = ", ".join(c.name for c in data_cols)
        return f"INSERT INTO {table} ({cols}) VALUES {', '.join(parts)}"

    def bind_delete(self, stmt: ast.DeleteStatement,
                    sql: str = "") -> BoundDelete:
        if stmt.table not in self.schema.tables:
            raise BindError(f"unknown table {stmt.table!r}")
        if any(isinstance(p, ast.JoinPredicate) for p in stmt.predicates):
            raise BindError("DELETE supports single-table predicates only")
        selections = tuple(
            self._bind_selection(p, [stmt.table]) for p in stmt.predicates
        )
        return BoundDelete(sql=sql, table=stmt.table, selections=selections,
                           param_count=_count_parameters(selections))

    def bind(self, query: ast.SelectQuery, sql: str = "") -> BoundQuery:
        tables = self._check_tables(query.tables)
        joins = [p for p in query.predicates
                 if isinstance(p, ast.JoinPredicate)]
        anchor = self._validate_join_tree(tables, joins)
        selections = tuple(
            self._bind_selection(p, tables)
            for p in query.predicates
            if not isinstance(p, ast.JoinPredicate)
        )
        projections = tuple(self._expand_select(query.select, tables))
        aggregates = tuple(
            self._bind_aggregate(item, tables)
            for item in query.select if isinstance(item, ast.Aggregate)
        )
        group_by = tuple(
            self._resolve(ref, tables) for ref in query.group_by
        )
        order_by = tuple(
            BoundOrderItem(self._resolve(item.column, tables), item.desc)
            for item in query.order_by
        )
        if aggregates:
            for item in order_by:
                if item.column not in group_by:
                    raise BindError(
                        f"ORDER BY {item.column} must appear in GROUP BY "
                        f"when aggregates are present"
                    )
            plain = [i for i in query.select
                     if not isinstance(i, ast.Aggregate)]
            for item in plain:
                bound = (self._resolve(item, tables)
                         if isinstance(item, ast.ColumnRef) else None)
                if bound is None or bound not in group_by:
                    raise BindError(
                        "non-aggregated select items must appear in "
                        "GROUP BY"
                    )
        elif group_by:
            raise BindError("GROUP BY without aggregates")
        if query.distinct and not aggregates:
            # dedup keys are the projected values, so every sort key
            # must be one of them (standard SQL's DISTINCT restriction)
            for item in order_by:
                if item.column not in projections:
                    raise BindError(
                        f"ORDER BY {item.column} must appear in the "
                        f"select list with SELECT DISTINCT"
                    )
        return BoundQuery(
            sql=sql, tables=tuple(tables), anchor=anchor,
            selections=selections, projections=projections,
            aggregates=aggregates, group_by=group_by,
            order_by=order_by, limit=query.limit, offset=query.offset,
            distinct=query.distinct,
            param_count=_count_parameters(selections),
        )

    # ------------------------------------------------------------------
    def _check_tables(self, names: Sequence[str]) -> List[str]:
        out: List[str] = []
        for name in names:
            if name not in self.schema.tables:
                raise BindError(f"unknown table {name!r}")
            if name in out:
                raise BindError(f"table {name!r} listed twice in FROM")
            out.append(name)
        return out

    def _validate_join_tree(self, tables: List[str],
                            joins: List[ast.JoinPredicate]) -> str:
        """Check joins follow fk edges and the tables form one subtree."""
        edges = set()
        for j in joins:
            left = self._resolve(j.left, tables)
            right = self._resolve(j.right, tables)
            edge = self._classify_edge(left, right)
            edges.add(edge)
        anchor = min(tables, key=self.schema.depth)
        for name in tables:
            if name == anchor:
                continue
            parent = self.schema.parent(name)
            if parent is None or parent not in tables:
                raise BindError(
                    f"table {name!r} does not join to the rest of the "
                    f"query: include its parent {parent!r} and the "
                    f"foreign-key join"
                )
            if (parent, name) not in edges:
                raise BindError(
                    f"missing join predicate between {parent!r} and "
                    f"{name!r}"
                )
            if not self.schema.is_ancestor(anchor, name):
                raise BindError(
                    f"{name!r} is not in the subtree of the anchor "
                    f"table {anchor!r}"
                )
        for parent, child in edges:
            if parent not in tables or child not in tables:
                raise BindError("join references a table not in FROM")
        return anchor

    def _classify_edge(self, a: BoundColumn, b: BoundColumn
                       ) -> Tuple[str, str]:
        """Return (parent, child) if ``a = b`` is a valid fk/id join."""
        for fk, pk in ((a, b), (b, a)):
            if fk.column.is_foreign_key and pk.column.is_id:
                if fk.column.references != pk.table:
                    raise BindError(
                        f"join {fk}={pk} does not follow a foreign key "
                        f"({fk} references {fk.column.references!r})"
                    )
                return fk.table, pk.table
        raise BindError(
            f"join {a}={b} must equate a foreign key with a primary key"
        )

    # ------------------------------------------------------------------
    def _resolve(self, ref: ast.ColumnRef, tables: List[str]) -> BoundColumn:
        if ref.table is not None:
            if ref.table not in tables:
                raise BindError(
                    f"column {ref} references a table not in FROM"
                )
            table = self.schema.table(ref.table)
            if not table.has_column(ref.column):
                raise BindError(f"unknown column {ref}")
            return BoundColumn(ref.table, table.column(ref.column))
        matches = [
            t for t in tables if self.schema.table(t).has_column(ref.column)
        ]
        if not matches:
            raise BindError(f"unknown column {ref.column!r}")
        if len(matches) > 1:
            raise BindError(
                f"ambiguous column {ref.column!r}: in tables {matches}"
            )
        return BoundColumn(matches[0],
                           self.schema.table(matches[0]).column(ref.column))

    def _bind_selection(self, pred, tables: List[str]) -> BoundSelection:
        if isinstance(pred, ast.Comparison):
            predicate = Predicate(pred.op, pred.value)
        elif isinstance(pred, ast.BetweenPredicate):
            predicate = Predicate("between", pred.low, pred.high)
        elif isinstance(pred, ast.InPredicate):
            predicate = Predicate("in", values=pred.values)
        else:  # pragma: no cover - parser only yields the above
            raise BindError(f"unsupported predicate {pred!r}")
        bound = self._resolve(pred.column, tables)
        if bound.column.is_id:
            raise BindError(
                f"selections on surrogate keys ({bound}) are not supported"
            )
        return BoundSelection(bound.table, bound.column, predicate.map(
            lambda value: typed_value(bound.table, bound.column, value)))

    def _bind_aggregate(self, agg: ast.Aggregate,
                        tables: List[str]) -> BoundAggregate:
        arg = self._resolve(agg.arg, tables) if agg.arg else None
        if agg.func in ("SUM", "AVG") and arg is not None:
            from repro.storage.codec import CharType
            if isinstance(arg.column.type, CharType):
                raise BindError(f"{agg.func} over a char column")
        return BoundAggregate(agg.func, arg)

    def _expand_select(self, items, tables: List[str]) -> List[BoundColumn]:
        out: List[BoundColumn] = []
        for item in items:
            if isinstance(item, ast.Aggregate):
                continue
            if isinstance(item, ast.Star):
                targets = [item.table] if item.table else tables
                for t in targets:
                    if t not in tables:
                        raise BindError(f"{t}.* references unknown table")
                    for col in self.schema.table(t).columns:
                        out.append(BoundColumn(t, col))
            else:
                out.append(self._resolve(item, tables))
        return out
