"""Schema model: tables, HIDDEN columns, and the schema tree.

GhostDB's administration interface is a single annotation: columns (or
whole tables) are declared ``HIDDEN`` in ``CREATE TABLE``; everything
else defaults to Visible.  Declaring hidden attributes vertically
partitions the table between Untrusted and Secure with the surrogate
key replicated on both sides.

The query-processing framework targets tree-structured schemas: one
*root* table (the large central one, holding foreign keys to its
children) and *node* tables below it.  :class:`Schema` validates the
tree shape and provides the ancestor/descendant navigation used by
SKTs and climbing indexes.

Per the paper we handle "the most difficult situation": foreign keys
are Hidden, so all joins happen on Secure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import SchemaError
from repro.storage.codec import ColumnType, IntType

ID_COLUMN = "id"


@dataclass(frozen=True)
class Column:
    """One attribute: type, visibility, optional foreign-key target."""

    name: str
    type: ColumnType
    hidden: bool = False
    references: Optional[str] = None  # table this column is a fk to

    @property
    def is_id(self) -> bool:
        return self.name == ID_COLUMN

    @property
    def is_foreign_key(self) -> bool:
        return self.references is not None


class Table:
    """An ordered collection of columns with a surrogate ``id`` key.

    The ``id`` column is implicit when omitted: every GhostDB table has
    a dense integer surrogate key (ids are ``0..n-1`` in load order).
    """

    def __init__(self, name: str, columns: Sequence[Column]):
        self.name = name
        cols = list(columns)
        if not any(c.is_id for c in cols):
            cols.insert(0, Column(ID_COLUMN, IntType(4)))
        self.columns: List[Column] = cols
        self._by_name: Dict[str, Column] = {}
        for c in cols:
            if c.name in self._by_name:
                raise SchemaError(
                    f"duplicate column {c.name!r} in table {name!r}"
                )
            self._by_name[c.name] = c
        id_col = self._by_name[ID_COLUMN]
        if not isinstance(id_col.type, IntType):
            raise SchemaError(f"{name}.id must be an integer column")
        self._positions: Dict[str, int] = {
            c.name: i for i, c in enumerate(self.data_columns)}

    # ------------------------------------------------------------------
    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    @property
    def foreign_keys(self) -> List[Column]:
        return [c for c in self.columns if c.is_foreign_key]

    @property
    def hidden_columns(self) -> List[Column]:
        """Hidden non-id columns (the Secure image, ids implicit)."""
        return [c for c in self.columns if c.hidden and not c.is_id]

    @property
    def visible_columns(self) -> List[Column]:
        """Visible non-id columns (the Untrusted image)."""
        return [c for c in self.columns if not c.hidden and not c.is_id]

    @property
    def data_columns(self) -> List[Column]:
        """All non-id columns, in declaration order."""
        return [c for c in self.columns if not c.is_id]

    def column_position(self, name: str) -> int:
        """Position of ``name`` among :attr:`data_columns`."""
        try:
            return self._positions[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}"
            ) from None


class Schema:
    """A validated, tree-structured set of tables."""

    def __init__(self, tables: Sequence[Table]):
        self.tables: Dict[str, Table] = {}
        for t in tables:
            if t.name in self.tables:
                raise SchemaError(f"duplicate table {t.name!r}")
            self.tables[t.name] = t
        self._validate_references()
        self._parent: Dict[str, Optional[str]] = {}
        self._children: Dict[str, List[str]] = {n: [] for n in self.tables}
        self._build_tree()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate_references(self) -> None:
        for t in self.tables.values():
            for c in t.foreign_keys:
                if c.references not in self.tables:
                    raise SchemaError(
                        f"{t.name}.{c.name} references unknown table "
                        f"{c.references!r}"
                    )
                if c.references == t.name:
                    raise SchemaError(
                        f"{t.name}.{c.name} is a self-reference; the "
                        f"schema must be a tree"
                    )
                if not isinstance(c.type, IntType):
                    raise SchemaError(
                        f"foreign key {t.name}.{c.name} must be integer"
                    )
                if not c.hidden:
                    raise SchemaError(
                        f"foreign key {t.name}.{c.name} must be HIDDEN: "
                        f"GhostDB links tables on Secure only (the paper's "
                        f"design guideline)"
                    )

    def _build_tree(self) -> None:
        referenced_by: Dict[str, List[str]] = {n: [] for n in self.tables}
        for t in self.tables.values():
            for c in t.foreign_keys:
                referenced_by[c.references].append(t.name)
        for name, referrers in referenced_by.items():
            if len(referrers) > 1:
                raise SchemaError(
                    f"table {name!r} is referenced by several tables "
                    f"({referrers}); the schema must be a tree"
                )
            self._parent[name] = referrers[0] if referrers else None
        roots = [n for n, p in self._parent.items() if p is None]
        if len(roots) != 1:
            raise SchemaError(
                f"schema must have exactly one root table; found {roots}"
            )
        self.root = roots[0]
        for t in self.tables.values():
            for c in t.foreign_keys:
                self._children[t.name].append(c.references)
        # reject cycles / disconnection: every table must reach the root
        for name in self.tables:
            seen = set()
            cur: Optional[str] = name
            while cur is not None:
                if cur in seen:
                    raise SchemaError("cycle in schema references")
                seen.add(cur)
                cur = self._parent[cur]
            if self.root not in seen:
                raise SchemaError(
                    f"table {name!r} is disconnected from the root"
                )

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def parent(self, name: str) -> Optional[str]:
        """The table holding a foreign key to ``name`` (None for root)."""
        self.table(name)
        return self._parent[name]

    def children(self, name: str) -> List[str]:
        self.table(name)
        return list(self._children[name])

    def ancestors(self, name: str) -> List[str]:
        """Tables above ``name``, nearest first, root last."""
        out: List[str] = []
        cur = self.parent(name)
        while cur is not None:
            out.append(cur)
            cur = self._parent[cur]
        return out

    def descendants(self, name: str) -> List[str]:
        """All tables below ``name`` (pre-order)."""
        out: List[str] = []
        stack = list(self._children[name])
        while stack:
            t = stack.pop(0)
            out.append(t)
            stack.extend(self._children[t])
        return out

    def depth(self, name: str) -> int:
        return len(self.ancestors(name))

    def fk_to(self, parent: str, child: str) -> Column:
        """The foreign-key column of ``parent`` referencing ``child``."""
        for c in self.table(parent).foreign_keys:
            if c.references == child:
                return c
        raise SchemaError(f"{parent!r} holds no foreign key to {child!r}")

    def is_ancestor(self, high: str, low: str) -> bool:
        """Whether ``high`` is ``low`` itself or an ancestor of it."""
        return high == low or high in self.ancestors(low)
