"""Bulk loader: splits rows between Untrusted and Secure and builds
the fully indexed model.

Hidden data reaches the token through a secure channel at provisioning
time (the paper: a key "burned by the database owner" or an SSL
download), so loading is *not* part of query cost -- callers normally
reset the token's ledger after :meth:`Loader.build`.

For each table the loader:

* sends the visible columns (plus implicit id) to the Untrusted engine,
* stores the hidden non-fk columns as the flash-resident hidden image,
* folds the foreign keys into the Subtree Key Tables ("SKT columns
  corresponding to foreign keys come for free"),
* builds a climbing index per indexed hidden attribute and per
  non-root table id.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import StorageError
from repro.core.catalog import SecureCatalog, TableImage
from repro.core.stats import TableStats
from repro.hardware.token import SecureToken
from repro.index.climbing import ClimbingIndex
from repro.index.skt import SubtreeKeyTable
from repro.schema.model import Schema
from repro.storage.codec import RowCodec
from repro.storage.heap import HeapFile
from repro.untrusted.engine import UntrustedEngine


def ancestor_maps(schema: Schema, rows: Dict[str, List[Tuple]],
                  dead: Optional[Dict[str, Set[int]]] = None,
                  remap: Optional[Tuple[str, Dict[int, int]]] = None
                  ) -> Dict[str, Dict[str, Dict[int, List[int]]]]:
    """``maps[T][A][idT]`` = sorted ids of ancestor ``A`` whose fk chain
    reaches ``T`` tuple ``idT``.

    The bulk loader passes only ``rows``.  Compaction recomputes the
    maps over *live* rows: ids in ``dead[table]`` are left out at every
    level, and ``remap = (table, id_map)`` renumbers that one table
    through ``id_map``, whose keys are exactly its live ids -- what a
    from-scratch build of the live rows would produce.
    """
    # table -> {old id: output id} of its live rows; absent = all, as is
    live: Dict[str, Dict[int, int]] = {remap[0]: remap[1]} if remap else {}
    for table, gone in (dead or {}).items():
        if gone and table not in live:
            live[table] = {rid: rid for rid in range(len(rows[table]))
                           if rid not in gone}
    maps: Dict[str, Dict[str, Dict[int, List[int]]]] = {
        name: {} for name in schema.tables
    }
    for name in sorted(schema.tables, key=schema.depth):
        parent = schema.parent(name)
        if parent is None:
            continue
        pos = schema.table(parent).column_position(
            schema.fk_to(parent, name).name)
        ids_c, ids_p = live.get(name), live.get(parent)
        direct: Dict[int, List[int]] = {
            i: [] for i in (range(len(rows[name])) if ids_c is None
                            else ids_c.values())
        }
        for pid, row in enumerate(rows[parent]):
            if ids_p is not None:
                if pid not in ids_p:
                    continue
                pid = ids_p[pid]
            fk = row[pos]
            direct[fk if ids_c is None else ids_c[fk]].append(pid)
        maps[name][parent] = direct
        for higher, pmap in maps[parent].items():
            maps[name][higher] = {
                i: list(pmap[parents[0]]) if len(parents) == 1
                else sorted(chain.from_iterable(pmap[p] for p in parents))
                for i, parents in direct.items()
            }
    return maps


class Loader:
    """Accumulates rows, then builds the token-resident database."""

    def __init__(self, schema: Schema, token: SecureToken,
                 untrusted: UntrustedEngine,
                 indexed_columns: Optional[Dict[str, Sequence[str]]] = None):
        """``indexed_columns`` restricts which hidden attributes get a
        climbing index (default: all hidden non-fk attributes)."""
        self.schema = schema
        self.token = token
        self.untrusted = untrusted
        self.indexed_columns = indexed_columns
        self._pending: Dict[str, List[Tuple]] = {
            name: [] for name in schema.tables
        }
        self.built = False

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def add_rows(self, table: str, rows: Sequence[Tuple]) -> None:
        """Queue rows; values in :meth:`Table.data_columns` order
        (everything except the implicit id, which is assigned densely
        in insertion order)."""
        t = self.schema.table(table)
        width = len(t.data_columns)
        for row in rows:
            if len(row) != width:
                raise StorageError(
                    f"{table}: expected {width} values "
                    f"({[c.name for c in t.data_columns]}), got {len(row)}"
                )
            self._pending[table].append(tuple(row))

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def build(self) -> SecureCatalog:
        """Construct images, SKTs and indexes; returns the catalog."""
        if self.built:
            raise StorageError("loader already built")
        self._check_referential_integrity()
        catalog = SecureCatalog(self.schema, self.token)
        with self.token.label("Load"):
            self._load_visible()
            self._load_hidden_images(catalog)
            desc_maps = self._compute_descendant_maps()
            self._build_skts(catalog, desc_maps)
            anc_maps = ancestor_maps(self.schema, self._pending)
            self._build_indexes(catalog, anc_maps)
            self._gather_stats(catalog)
        self.built = True
        return catalog

    # ------------------------------------------------------------------
    def _fk_values(self, table: str, child: str) -> List[int]:
        """Per-row fk values of ``table`` referencing ``child``."""
        t = self.schema.table(table)
        pos = t.column_position(self.schema.fk_to(table, child).name)
        return [row[pos] for row in self._pending[table]]

    def _check_referential_integrity(self) -> None:
        for name in self.schema.tables:
            for child in self.schema.children(name):
                limit = len(self._pending[child])
                for rid, fk in enumerate(self._fk_values(name, child)):
                    if not 0 <= fk < limit:
                        raise StorageError(
                            f"{name} row {rid}: fk {fk} out of range for "
                            f"{child} ({limit} rows)"
                        )

    def _load_visible(self) -> None:
        for name, rows in self._pending.items():
            t = self.schema.table(name)
            positions = [t.column_position(c.name)
                         for c in t.visible_columns]
            self.untrusted.load(
                name, [tuple(r[p] for p in positions) for r in rows]
            )

    def _load_hidden_images(self, catalog: SecureCatalog) -> None:
        for name, rows in self._pending.items():
            t = self.schema.table(name)
            hidden = [c for c in t.hidden_columns if not c.is_foreign_key]
            heap = None
            if hidden:
                positions = [t.column_position(c.name) for c in hidden]
                codec = RowCodec([c.type for c in hidden])
                heap = HeapFile.build(
                    self.token.store, f"hidden_{name}", codec,
                    (tuple(r[p] for p in positions) for r in rows),
                    self.token.page_size,
                )
            catalog.images[name] = TableImage(
                table=t, hidden_columns=hidden, heap=heap
            )

    # ------------------------------------------------------------------
    def _compute_descendant_maps(self) -> Dict[str, Dict[str, List[int]]]:
        """``maps[T][D][idT]`` = the single D id below tuple idT."""
        maps: Dict[str, Dict[str, List[int]]] = {}
        # process parents before their descendants' composition
        order = sorted(self.schema.tables, key=self.schema.depth)
        for name in order:
            maps[name] = {}
            for child in self.schema.children(name):
                direct = self._fk_values(name, child)
                maps[name][child] = direct
        # compose deepest-first so each child's map is already complete
        for name in reversed(order):
            for child in self.schema.children(name):
                direct = maps[name][child]
                # splice in the child's own descendant maps
                for deeper, sub in maps.get(child, {}).items():
                    maps[name][deeper] = [sub[i] for i in direct]
        return maps

    def _build_skts(self, catalog: SecureCatalog,
                    desc_maps: Dict[str, Dict[str, List[int]]]) -> None:
        for name in self.schema.tables:
            descendants = self.schema.descendants(name)
            if not descendants:
                continue
            cols = descendants
            columns_data = [desc_maps[name][d] for d in cols]
            n = len(self._pending[name])
            rows = (tuple(col[i] for col in columns_data) for i in range(n))
            catalog.skts[name] = SubtreeKeyTable.build(
                self.token.store, name, cols, rows, self.token.page_size
            )

    def _build_indexes(self, catalog: SecureCatalog, anc_maps) -> None:
        for name in self.schema.tables:
            t = self.schema.table(name)
            rows = self._pending[name]
            ancestors = self.schema.ancestors(name)
            levels = [name] + ancestors
            anc = {a: anc_maps[name][a] for a in ancestors}
            indexable = [c for c in t.hidden_columns
                         if not c.is_foreign_key]
            if self.indexed_columns is not None:
                wanted = set(self.indexed_columns.get(name, ()))
                indexable = [c for c in indexable if c.name in wanted]
            for col in indexable:
                pos = t.column_position(col.name)
                items = [(row[pos], rid) for rid, row in enumerate(rows)]
                catalog.attr_indexes[(name, col.name)] = ClimbingIndex.build(
                    self.token.store, f"{name}_{col.name}", col.type,
                    levels, items, anc, self.token.page_size,
                )
            if ancestors:  # id climbing index (root needs none)
                items = [(rid, rid) for rid in range(len(rows))]
                catalog.id_indexes[name] = ClimbingIndex.build(
                    self.token.store, f"{name}_id",
                    t.column("id").type, levels, items, anc,
                    self.token.page_size,
                )
        # keep raw rows available for the reference engine / tests
        catalog.raw_rows = dict(self._pending)

    def _gather_stats(self, catalog: SecureCatalog) -> None:
        """One statistics pass while the rows are still streaming by.

        Visible *and* hidden column sketches stay on the token (they
        never cross the channel), which is what lets the cost-based
        planner estimate selectivities without outbound probes.
        """
        for name, rows in self._pending.items():
            catalog.stats[name] = TableStats.from_rows(
                self.schema.table(name), rows
            )
