"""The Secure catalog: everything GhostDB persists on the token.

For each table the token stores the *hidden image* (hidden non-fk
attributes, row position == id), plus the fully indexed model of
section 3.2: one Subtree Key Table per non-leaf table, a climbing
index on each indexed hidden attribute, and a climbing index on each
non-root table's id (used to climb Visible selections).

Incremental DML adds three per-table pieces of append-only state:

* a *tombstone* set (flash-logged) of deleted ids, consulted by the
  executor and the reference oracle -- deletes never compact files;
* the *fk delta*: which new parent rows reference each child id since
  the build, letting climbing-index lookups reach appended rows
  without rebuilding ancestor runs;
* a *data generation* counter, bumped by every INSERT/DELETE, that
  session plan caches compare against so DML invalidates only plans
  touching the mutated table.

The catalog also owns the *statistics catalog* (:mod:`repro.core.stats`):
one :class:`~repro.core.stats.TableStats` sketch set per table,
gathered at build/rebuild time and incrementally maintained by the DML
paths, with a parallel per-table *stats generation* so plan caches
treat statistics changes exactly like data changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.stats import TableStats
from repro.errors import PlanError
from repro.hardware.token import SecureToken
from repro.index.climbing import ClimbingIndex
from repro.index.skt import SubtreeKeyTable
from repro.flash.constants import ID_SIZE
from repro.flash.store import FlashFile
from repro.predicate import Predicate
from repro.schema.model import Column, Schema, Table
from repro.storage.heap import HeapFile


@dataclass
class TableImage:
    """The hidden side of one table."""

    table: Table
    hidden_columns: List[Column]          # non-fk hidden attributes
    heap: Optional[HeapFile]              # None when no hidden attributes

    def hidden_positions(self, names: List[str]) -> List[int]:
        pos = {c.name: i for i, c in enumerate(self.hidden_columns)}
        return [pos[n] for n in names]


class SecureCatalog:
    """Lookup structure over the token-resident database."""

    def __init__(self, schema: Schema, token: SecureToken):
        self.schema = schema
        self.token = token
        self.images: Dict[str, TableImage] = {}
        self.skts: Dict[str, SubtreeKeyTable] = {}
        self.attr_indexes: Dict[Tuple[str, str], ClimbingIndex] = {}
        self.id_indexes: Dict[str, ClimbingIndex] = {}
        # raw loaded rows, kept for the reference oracle and compaction;
        # DML appends here too so the oracle tracks the live database
        self.raw_rows: Dict[str, List[Tuple]] = {}
        # --- incremental-DML state (all append-only) ---
        self.tombstones: Dict[str, Set[int]] = {
            name: set() for name in schema.tables
        }
        self.fk_deltas: Dict[str, Dict[int, List[int]]] = {
            name: {} for name in schema.tables
        }
        self.data_generations: Dict[str, int] = {
            name: 0 for name in schema.tables
        }
        # --- statistics catalog (planner metadata, token-resident) ---
        self.stats: Dict[str, TableStats] = {}
        self.stats_generations: Dict[str, int] = {
            name: 0 for name in schema.tables
        }
        # generations as of the build or the last compaction; the next
        # compaction compares against them to find what was mutated since
        self.built_generations: Dict[str, int] = dict(self.data_generations)

    # ------------------------------------------------------------------
    # savepoints (statement rollback)
    # ------------------------------------------------------------------
    def savepoint(self, table: str, deleting: bool) -> Dict[str, Any]:
        """What :meth:`rollback` needs to undo one DML statement on
        ``table``, and nothing the statement cannot touch.

        An INSERT only appends -- rows, fk-delta edges, index delta
        entries -- so lengths undo it; a DELETE (``deleting``) only
        tombstones, so it adds a copy of ``table``'s tombstone set.
        Both move ``table``'s sketches and generations.  No other
        table is looked at: arming a statement costs the same whatever
        debt the database carries.
        """
        return {
            "table": table,
            "n_rows": self.n_rows(table),
            "tombstones": set(self.tombstones[table]) if deleting else None,
            "stats": self.stats[table].copy(),
            "generations": (self.data_generations[table],
                            self.stats_generations[table]),
            "indexes": [(ci, ci.savepoint())
                        for ci in self.indexes_on(table)],
        }

    def rollback(self, savepoint: Dict[str, Any]) -> None:
        """Back to :meth:`savepoint`: what the catalog keeps in RAM (the
        flash content is the statement journal's to cut back, first)."""
        table, n_rows = savepoint["table"], savepoint["n_rows"]
        del self.raw_rows[table][n_rows:]
        # edges the statement recorded lead to its own rows: parent ids
        # at or past the old row count, at the tail of each edge list
        for fk in self.schema.table(table).foreign_keys:
            edges = self.fk_deltas[fk.references]
            for child_id, parents in list(edges.items()):
                while parents and parents[-1] >= n_rows:
                    parents.pop()
                if not parents:
                    del edges[child_id]
        if savepoint["tombstones"] is not None:
            # the reference oracle shares the set: mutate in place
            dead = self.tombstones[table]
            dead.clear()
            dead.update(savepoint["tombstones"])
        self.stats[table] = savepoint["stats"]
        (self.data_generations[table],
         self.stats_generations[table]) = savepoint["generations"]
        for ci, index_savepoint in savepoint["indexes"]:
            ci.rollback(index_savepoint)

    # ------------------------------------------------------------------
    def image(self, table: str) -> TableImage:
        try:
            return self.images[table]
        except KeyError:
            raise PlanError(f"no hidden image loaded for {table!r}") from None

    def n_rows(self, table: str) -> int:
        """Rows ``table`` holds, tombstoned ones included: row ``i`` of
        its raw rows, hidden image, SKT and visible image is tuple
        ``i``, so the raw rows' length is the one count."""
        return len(self.raw_rows[table])

    def skt(self, table: str) -> SubtreeKeyTable:
        try:
            return self.skts[table]
        except KeyError:
            raise PlanError(f"table {table!r} has no SKT (leaf table?)") \
                from None

    def attr_index(self, table: str, column: str) -> ClimbingIndex:
        try:
            return self.attr_indexes[(table, column)]
        except KeyError:
            raise PlanError(
                f"no climbing index on {table}.{column}; hidden "
                f"selections require an index (fully indexed model)"
            ) from None

    def id_index(self, table: str) -> ClimbingIndex:
        try:
            return self.id_indexes[table]
        except KeyError:
            raise PlanError(f"no id climbing index for {table!r}") from None

    def indexes_on(self, table: str) -> List[ClimbingIndex]:
        """The climbing indexes anchored on ``table`` (attr, then id)."""
        out = [ci for (t, _), ci in sorted(self.attr_indexes.items())
               if t == table]
        if table in self.id_indexes:
            out.append(self.id_indexes[table])
        return out

    # ------------------------------------------------------------------
    # incremental-DML state
    # ------------------------------------------------------------------
    def is_live(self, table: str, rid: int) -> bool:
        """Whether row ``rid`` has not been tombstoned."""
        return rid not in self.tombstones[table]

    def live_rows(self, table: str) -> int:
        """Row count net of tombstones."""
        return self.n_rows(table) - len(self.tombstones[table])

    def mark_deleted(self, table: str, ids: Iterable[int]) -> int:
        """Tombstone ``ids``; appends the new ones to the flash
        tombstone log in one tail append (one program per page they
        fill, charged like any NAND write).

        Returns how many previously live rows died.  Files are never
        compacted in place -- an incremental
        :meth:`~repro.core.ghostdb.GhostDB.compact` of the table
        reclaims the space when tombstones accumulate.
        """
        dead = self.tombstones[table]
        log = self._tombstone_log(table)
        if log is None:
            log = self.token.store.create(f"tombstones_{table}")
        fresh = [rid for rid in dict.fromkeys(ids) if rid not in dead]
        log.append_records([rid.to_bytes(ID_SIZE, "little")
                            for rid in fresh])
        dead.update(fresh)
        return len(fresh)

    def _tombstone_log(self, table: str) -> Optional[FlashFile]:
        """``table``'s tombstone log, if a delete ever created it (the
        flash store's directory is the only record of that)."""
        store = self.token.store
        name = f"tombstones_{table}"
        return store.get(name) if store.exists(name) else None

    def tombstone_log_bytes(self, table: str) -> int:
        """Flash bytes of ``table``'s tombstone log (compaction report)."""
        log = self._tombstone_log(table)
        return log.n_bytes if log is not None else 0

    def drop_tombstone_log(self, table: str) -> None:
        """Free ``table``'s tombstone log after a compaction folded the
        deletions into the rebuilt image (the in-RAM set is cleared by
        the caller, in place -- the reference oracle shares it)."""
        log = self._tombstone_log(table)
        if log is not None:
            log.free()

    def record_fk_delta(self, child_table: str, child_id: int,
                        parent_id: int) -> None:
        """Note that new row ``parent_id`` references ``child_id``."""
        self.fk_deltas[child_table].setdefault(child_id, []).append(
            parent_id
        )

    def bump_generation(self, table: str) -> None:
        self.data_generations[table] += 1

    # ------------------------------------------------------------------
    # statistics catalog
    # ------------------------------------------------------------------
    def selectivity(self, table: str, column: str,
                    predicate: Predicate) -> float:
        """Estimated selectivity of ``predicate`` over live rows."""
        stats = self.stats.get(table)
        if stats is None:
            return 0.5
        return stats.selectivity(column, predicate)

    def record_inserted_rows(self, table: str,
                             rows: Iterable[Tuple]) -> None:
        """Fold freshly appended rows into the table's sketches."""
        stats = self.stats.get(table)
        if stats is None:
            return
        for row in rows:
            stats.add_row(row)
        self.stats_generations[table] += 1

    def record_deleted_rows(self, table: str,
                            ids: Iterable[int]) -> None:
        """Fold tombstoned rows out of the table's sketches.

        The deleted values come from the retained raw rows; bounds stay
        conservative until the next rebuild/analyze re-tightens them.
        """
        stats = self.stats.get(table)
        if stats is None:
            return
        rows = self.raw_rows[table]
        changed = False
        for rid in ids:
            stats.remove_row(rows[rid])
            changed = True
        if changed:
            self.stats_generations[table] += 1

    def analyze(self) -> Dict[str, Dict]:
        """Recompute every table's sketches from the live rows.

        Unlike the incremental maintenance this re-tightens min/max
        bounds after deletes.  Bumps each recomputed table's stats
        generation so cached auto plans are re-costed.
        """
        out: Dict[str, Dict] = {}
        for name in self.schema.tables:
            dead = self.tombstones[name]
            live = [row for rid, row in enumerate(self.raw_rows[name])
                    if rid not in dead]
            self.stats[name] = TableStats.from_rows(
                self.schema.table(name), live
            )
            self.stats_generations[name] += 1
            out[name] = self.stats[name].describe()
        return out

    # ------------------------------------------------------------------
    def storage_report(self) -> Dict[str, int]:
        """Flash bytes per component family (for documentation/tests)."""
        report = {"hidden_images": 0, "skts": 0, "attr_indexes": 0,
                  "id_indexes": 0, "tombstones": 0}
        for name in self.schema.tables:
            report["tombstones"] += self.tombstone_log_bytes(name)
        for img in self.images.values():
            if img.heap is not None:
                report["hidden_images"] += img.heap.file.n_bytes
        for skt in self.skts.values():
            report["skts"] += skt.heap.file.n_bytes
        for ci in self.attr_indexes.values():
            report["attr_indexes"] += ci.storage_bytes()
        for ci in self.id_indexes.values():
            report["id_indexes"] += ci.storage_bytes()
        return report
