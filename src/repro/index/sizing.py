"""Analytic storage-cost model for the four indexation schemes of Fig. 7.

The model reproduces the paper's accounting:

* **DBSize** -- raw Visible + Hidden data (ids, foreign keys, attributes),
  constant in the number of indexed attributes.
* **FullIndex** -- one SKT per non-leaf table plus climbing indexes
  (referencing *every* ancestor) on each table's id and on the indexed
  hidden attributes.  SKT columns for direct children are the table's
  own foreign keys and are free; only non-child descendant columns cost
  extra.  The sorted-on id is implicit and free.
* **BasicIndex** -- a single SKT (root) and climbing indexes that
  reference the root directly (sublists for the indexed table and the
  root only).
* **StarIndex** -- the root SKT plus *traditional* selection indexes
  (sublists for the indexed table only); join strategy as in
  bitmapped-join-index systems.
* **JoinIndex** -- no SKT; traditional indexes on all attributes
  including keys and foreign keys (binary join indices).

The model is analytic (bytes, not an actual build) so the figure can be
regenerated at the paper's full 10M-tuple scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import SchemaError
from repro.flash.constants import ID_SIZE, PAGE_SIZE

_CHILD_PTR = 4


@dataclass(frozen=True)
class TableSpec:
    """Cardinality and width description of one table for sizing."""

    name: str
    rows: int
    parent: Optional[str] = None
    visible_attr_widths: Sequence[int] = field(default_factory=tuple)
    hidden_attr_widths: Sequence[int] = field(default_factory=tuple)


def _btree_bytes(n_entries: int, key_width: int,
                 payload_width: int) -> int:
    """Approximate size of a bulk-built B+-tree (leaves + internals)."""
    if n_entries == 0:
        return 0
    leaf_bytes = n_entries * (key_width + payload_width)
    fanout = max(2, PAGE_SIZE // (key_width + _CHILD_PTR))
    # geometric series of internal levels
    internal = leaf_bytes / fanout * (fanout / (fanout - 1))
    return int(leaf_bytes + internal)


class IndexSizingModel:
    """Computes Fig.-7 curves for a tree-structured schema."""

    def __init__(self, tables: Sequence[TableSpec],
                 attr_distinct: int = 1000):
        self.tables: Dict[str, TableSpec] = {t.name: t for t in tables}
        if len(self.tables) != len(tables):
            raise SchemaError("duplicate table name in sizing spec")
        # indexed attributes draw from a bounded domain; the ID runs --
        # not the value B+-tree -- dominate index size (paper section 3.2)
        self.attr_distinct = attr_distinct
        self._children: Dict[str, List[str]] = {t.name: [] for t in tables}
        roots = []
        for t in tables:
            if t.parent is None:
                roots.append(t.name)
            else:
                if t.parent not in self.tables:
                    raise SchemaError(f"unknown parent {t.parent!r}")
                self._children[t.parent].append(t.name)
        if len(roots) != 1:
            raise SchemaError(f"need exactly one root table, got {roots}")
        self.root = roots[0]

    # ------------------------------------------------------------------
    # tree helpers
    # ------------------------------------------------------------------
    def descendants(self, name: str) -> List[str]:
        out: List[str] = []
        stack = list(self._children[name])
        while stack:
            t = stack.pop()
            out.append(t)
            stack.extend(self._children[t])
        return out

    def ancestors(self, name: str) -> List[str]:
        """Tables above ``name`` (nearest first, root last).

        An ancestor is a table whose foreign-key chain reaches ``name``.
        """
        out: List[str] = []
        parent_of = {t.name: t.parent for t in self.tables.values()}
        cur = parent_of[name]
        while cur is not None:
            out.append(cur)
            cur = parent_of[cur]
        return out

    # ------------------------------------------------------------------
    # component costs
    # ------------------------------------------------------------------
    def db_size(self) -> int:
        """Raw data bytes: id + foreign keys + all attributes, per table."""
        total = 0
        for t in self.tables.values():
            row = ID_SIZE + ID_SIZE * len(self._children[t.name])
            row += sum(t.visible_attr_widths) + sum(t.hidden_attr_widths)
            total += t.rows * row
        return total

    def _skt_extra(self, name: str) -> int:
        """Extra bytes of SKT(name): non-child descendant columns only."""
        extra_cols = len(self.descendants(name)) - len(self._children[name])
        return self.tables[name].rows * ID_SIZE * max(0, extra_cols)

    def _attr_index_bytes(self, table: str, levels: Sequence[str]) -> int:
        """One climbing index on a hidden attribute: ID runs + value tree."""
        runs = sum(self.tables[lv].rows * ID_SIZE for lv in levels)
        n_entries = min(self.tables[table].rows, self.attr_distinct)
        tree = _btree_bytes(n_entries, 8, 8 * len(levels))
        return runs + tree

    def _id_index_bytes(self, table: str, levels: Sequence[str]) -> int:
        """Climbing index on ``table.id`` (self level omitted: identity)."""
        if not levels:
            return 0
        runs = sum(self.tables[lv].rows * ID_SIZE for lv in levels)
        tree = _btree_bytes(self.tables[table].rows, 8, 8 * len(levels))
        return runs + tree

    def _pk_index_bytes(self, table: str) -> int:
        """A traditional primary-key B+-tree (Star/Join schemes)."""
        return _btree_bytes(self.tables[table].rows, 8, 8)

    def _skt_full(self, name: str) -> int:
        """Full SKT bytes: one column per descendant (traditional layout
        keeps fks inside the table, so nothing is free)."""
        cols = len(self.descendants(name))
        return self.tables[name].rows * ID_SIZE * cols

    # ------------------------------------------------------------------
    # the four schemes
    # ------------------------------------------------------------------
    def full_index_size(self, n_indexed_hidden: int) -> int:
        """FullIndex: all SKTs + full climbing indexes everywhere.

        SKT child-fk columns are free (they replace in-table fk storage).
        """
        total = 0
        for name in self.tables:
            if self.descendants(name):
                total += self._skt_extra(name)
            anc = self.ancestors(name)
            total += self._id_index_bytes(name, anc)
            levels = [name] + anc
            total += n_indexed_hidden * self._attr_index_bytes(name, levels)
        return total

    def basic_index_size(self, n_indexed_hidden: int) -> int:
        """BasicIndex: root SKT only; climbing sublists for self + root."""
        total = self._skt_extra(self.root)
        for name in self.tables:
            anc = self.ancestors(name)
            root_only = [self.root] if anc else []
            total += self._id_index_bytes(name, root_only)
            levels = [name] + root_only
            total += n_indexed_hidden * self._attr_index_bytes(name, levels)
        return total

    def star_index_size(self, n_indexed_hidden: int) -> int:
        """StarIndex: root SKT + traditional pk and selection indexes.

        The traditional layout keeps fks inside tables, so the SKT is
        counted in full, and every table carries an ordinary pk B+-tree.
        """
        total = self._skt_full(self.root)
        for name in self.tables:
            total += self._pk_index_bytes(name)
            total += n_indexed_hidden * self._attr_index_bytes(name, [name])
        return total

    def join_index_size(self, n_indexed_hidden: int) -> int:
        """JoinIndex: StarIndex minus the root SKT, plus binary join
        indices on every foreign-key edge (a la Valduriez)."""
        total = 0
        for name, t in self.tables.items():
            total += self._pk_index_bytes(name)
            for child in self._children[name]:
                # join index on the edge name -> child: keyed on the
                # child id, ID runs hold the referencing parent ids
                total += _btree_bytes(self.tables[child].rows, 8, 8)
                total += t.rows * ID_SIZE
            total += n_indexed_hidden * self._attr_index_bytes(name, [name])
        return total

    # ------------------------------------------------------------------
    # heterogeneous per-table attribute counts (real data set, section 6.3)
    # ------------------------------------------------------------------
    def real_dataset_sizes(self, indexed_hidden: Dict[str, int]
                           ) -> Dict[str, float]:
        """Sizes in MB when tables index different numbers of hidden attrs.

        ``indexed_hidden`` maps table name -> number of indexed hidden
        (non-foreign-key) attributes; foreign keys are covered by SKTs
        in Full/Basic and by binary join indices in JoinIndex.
        """
        full = basic = star = join = 0
        star += self._skt_full(self.root)
        basic += self._skt_extra(self.root)
        for name, t in self.tables.items():
            k = indexed_hidden.get(name, 0)
            anc = self.ancestors(name)
            if self.descendants(name):
                full += self._skt_extra(name)
            full += self._id_index_bytes(name, anc)
            full += k * self._attr_index_bytes(name, [name] + anc)
            root_only = [self.root] if anc else []
            basic += self._id_index_bytes(name, root_only)
            basic += k * self._attr_index_bytes(name, [name] + root_only)
            star += self._pk_index_bytes(name)
            star += k * self._attr_index_bytes(name, [name])
            join += self._pk_index_bytes(name)
            for child in self._children[name]:
                join += _btree_bytes(self.tables[child].rows, 8, 8)
                join += t.rows * ID_SIZE
            join += k * self._attr_index_bytes(name, [name])
        mb = 1.0 / 1e6
        return {
            "DBSize": self.db_size() * mb,
            "FullIndex": full * mb,
            "BasicIndex": basic * mb,
            "StarIndex": star * mb,
            "JoinIndex": join * mb,
        }

    def figure7_rows(self, attr_counts: Sequence[int] = range(6)
                     ) -> List[Dict[str, float]]:
        """The Fig.-7 series, in MB, one row per x-axis point."""
        mb = 1.0 / 1e6
        rows = []
        for k in attr_counts:
            rows.append({
                "hidden_attrs_per_table": k,
                "DBSize": self.db_size() * mb,
                "FullIndex": self.full_index_size(k) * mb,
                "BasicIndex": self.basic_index_size(k) * mb,
                "StarIndex": self.star_index_size(k) * mb,
                "JoinIndex": self.join_index_size(k) * mb,
            })
        return rows
