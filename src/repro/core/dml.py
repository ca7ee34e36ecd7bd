"""Incremental DML: INSERT and DELETE against a built database.

The paper's flash-resident structures are designed for sequential,
append-only NAND writes, and every mutation here honors that:

* an INSERT appends the hidden half of the row to the table image,
  the foreign keys to ``SKT(table)``, and one entry per climbing
  index to its append-only delta log.  The visible half travels to
  Untrusted over the audited channel (Visible data is public storage
  by definition); hidden values arrive over the secure provisioning
  channel and *never* appear in outbound text -- the announced
  statement is the binder's redacted ``public_text``.
* a DELETE evaluates its predicates with the ordinary selection-join
  machinery (climbing indexes + Vis), then tombstones the matching
  ids.  Files are never compacted in place; an incremental
  ``db.compact(table)`` reclaims the space in bounded steps.

Every statement is two steps: :meth:`DmlExecutor.check` does everything
that can refuse it and mutates nothing, :meth:`DmlExecutor.insert` /
:meth:`DmlExecutor.delete` apply what the check resolved.  A fleet runs
the check on every target shard before any shard applies.

Cost discipline: an insert is O(appended bytes) -- one tail page
re-programmed per file it extends, a fresh page per further page the
rows fill, plus the channel transfer of the rows themselves -- never a
scan of the table.  DML costs are reported through the same
:class:`~repro.core.executor.QueryStats` as queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple, Union

from repro.core.catalog import SecureCatalog
from repro.core.executor import CostWindow, QepSjExecutor, QueryStats
from repro.core.operators import ExecContext
from repro.core.planner import Planner
from repro.errors import GhostDBError, StorageError
from repro.hardware.token import SecureToken
from repro.schema.model import Schema, Table
from repro.sql.binder import (BoundColumn, BoundDelete, BoundInsert,
                              BoundQuery, typed_value)
from repro.untrusted.server import VisServer

DML_LABEL = "Dml"


@dataclass
class DmlResult:
    """Outcome and simulated cost of one INSERT or DELETE."""

    statement: str        # "insert" | "delete"
    table: str
    rows_affected: int
    stats: QueryStats


@dataclass
class CheckedDml:
    """A DML statement that passed its check and is not applied yet."""

    bound: Union[BoundInsert, BoundDelete]
    #: the statement's one cost window: opened before the check, read
    #: after the apply
    cost: CostWindow
    #: what the check resolved for the apply step: an INSERT's column
    #: positions, a DELETE's matching live ids
    resolved: Any


class DmlExecutor:
    """Checks and applies bound DML statements on the token-resident
    database."""

    def __init__(self, schema: Schema, token: SecureToken,
                 catalog: SecureCatalog, vis_server: VisServer,
                 planner: Planner):
        self.schema = schema
        self.token = token
        self.catalog = catalog
        self.vis_server = vis_server
        self.planner = planner

    def check(self, bound: Union[BoundInsert, BoundDelete]):
        """Step one of a statement: everything that can refuse it,
        nothing that mutates.

        INSERT: :meth:`validate_insert`.  DELETE: announce the
        statement, evaluate its predicates, run the RESTRICT scan --
        all charged.  Returns what the apply step continues with.
        """
        bound.require_bound()
        if isinstance(bound, BoundInsert):
            return self.validate_insert(bound)
        with self.token.label(DML_LABEL):
            # a DELETE's predicates are query text: public by the same
            # argument as SELECT predicates
            self.vis_server.announce(bound.sql, 120)
        ids = self._matching_ids(bound)
        with self.token.label(DML_LABEL):
            self._check_restrict(bound.table, ids)
        return ids

    # ------------------------------------------------------------------
    # INSERT
    # ------------------------------------------------------------------
    def insert(self, bound: BoundInsert, resolved) -> int:
        """Append ``bound.rows`` (``resolved`` is what :meth:`check`
        returned); returns the number of rows inserted."""
        table, hidden, hid_positions, vis_positions, fk_positions = \
            resolved

        with self.token.label(DML_LABEL):
            # the redacted statement is the only text that leaves
            self.vis_server.announce(bound.public_text, 120)
            # always push (possibly empty) visible tuples so Untrusted's
            # id space stays dense and in step with the token's
            self.vis_server.push_rows(
                bound.table,
                [tuple(r[p] for p in vis_positions) for r in bound.rows],
            )
            # hidden halves (incl. fks) enter over the secure
            # provisioning channel: inbound, unaudited, leak-free
            hidden_width = sum(c.type.width for c in table.hidden_columns)
            if hidden_width:
                self.token.channel.to_secure(
                    hidden_width * len(bound.rows),
                    f"provision({bound.table})",
                )
            self._append_rows(table, bound.rows, hidden, hid_positions,
                              fk_positions)
        self.catalog.record_inserted_rows(bound.table, bound.rows)
        self.catalog.bump_generation(bound.table)
        return len(bound.rows)

    def validate_insert(self, bound: BoundInsert):
        """All side-effect-free INSERT checks, before anything mutates.

        Validates *before* any side effect: every value must satisfy
        its column type's ``typed`` rule -- visible values as much as
        hidden ones, or one bad row would poison Untrusted's image and
        the sketches -- and fk targets must exist and be live.
        Returns the resolved column-position tuple :meth:`insert`
        continues with.
        """
        table = self.schema.table(bound.table)
        hidden = [c for c in table.hidden_columns if not c.is_foreign_key]
        hid_positions = [table.column_position(c.name) for c in hidden]
        vis_positions = [table.column_position(c.name)
                         for c in table.visible_columns]
        fk_positions = [(c, table.column_position(c.name))
                        for c in table.foreign_keys]
        value_positions = [(c, table.column_position(c.name))
                           for c in table.data_columns
                           if not c.is_foreign_key]
        for row in bound.rows:
            for column, pos in value_positions:
                typed_value(bound.table, column, row[pos])
        self._check_foreign_keys(bound, fk_positions)
        return table, hidden, hid_positions, vis_positions, fk_positions

    def _check_foreign_keys(self, bound: BoundInsert,
                            fk_positions) -> None:
        for col, pos in fk_positions:
            child = col.references
            limit = self.catalog.n_rows(child)
            for row in bound.rows:
                fk = row[pos]
                if not isinstance(fk, int) or not 0 <= fk < limit:
                    raise StorageError(
                        f"{bound.table}.{col.name}: fk {fk!r} out of "
                        f"range for {child} ({limit} rows)"
                    )
                if not self.catalog.is_live(child, fk):
                    raise GhostDBError(
                        f"{bound.table}.{col.name}: fk {fk} references "
                        f"a deleted {child} row"
                    )

    def _append_rows(self, table: Table, rows: List[Tuple], hidden,
                     hid_positions: List[int], fk_positions) -> None:
        """Append ``rows`` to every file of ``table`` with one tail
        append per file -- the heap, the SKT, each climbing index's
        delta log -- then do the in-RAM bookkeeping row by row."""
        catalog = self.catalog
        first = catalog.n_rows(table.name)
        ids = range(first, first + len(rows))
        image = catalog.image(table.name)
        if image.heap is not None:
            image.heap.append_rows(
                [tuple(row[p] for p in hid_positions) for row in rows])
        if table.name in catalog.skts:
            skt = catalog.skts[table.name]
            skt.append_rows([self._descendant_ids(table, row, skt.columns)
                             for row in rows])
        for col in hidden:
            index = catalog.attr_indexes.get((table.name, col.name))
            if index is not None:
                pos = table.column_position(col.name)
                index.append([(row[pos], new_id)
                              for row, new_id in zip(rows, ids)])
        if table.name in catalog.id_indexes:
            catalog.id_indexes[table.name].append(list(zip(ids, ids)))
        for row, new_id in zip(rows, ids):
            for col, pos in fk_positions:
                catalog.record_fk_delta(col.references, row[pos], new_id)
            catalog.raw_rows[table.name].append(tuple(row))

    def _descendant_ids(self, table: Table, row: Tuple,
                        skt_columns: List[str]) -> List[int]:
        """The new row's descendant ids, in ``SKT(table)`` column order.

        Direct children come straight from the row's foreign keys; a
        deeper descendant is found in the child's own SKT row -- one
        random read per child subtree, independent of table sizes.
        """
        ids: Dict[str, int] = {}
        for col in table.foreign_keys:
            child = col.references
            child_id = row[table.column_position(col.name)]
            ids[child] = child_id
            child_skt = self.catalog.skts.get(child)
            if child_skt is not None:
                child_row = child_skt.get(child_id)
                for name, value in zip(child_skt.columns, child_row):
                    ids[name] = value
        return [ids[name] for name in skt_columns]

    # ------------------------------------------------------------------
    # DELETE
    # ------------------------------------------------------------------
    def delete(self, bound: BoundDelete, ids: List[int]) -> int:
        """Tombstone ``ids`` (the live matches :meth:`check` returned)
        and bump the table's generations."""
        with self.token.label(DML_LABEL):
            n = self.catalog.mark_deleted(bound.table, ids)
        self.catalog.record_deleted_rows(bound.table, ids)
        self.catalog.bump_generation(bound.table)
        return n

    def _matching_ids(self, bound: BoundDelete) -> List[int]:
        """Live ids satisfying the predicates, via the normal QEPSJ."""
        table = self.schema.table(bound.table)
        select = BoundQuery(
            sql=bound.sql, tables=(bound.table,), anchor=bound.table,
            selections=bound.selections,
            projections=(BoundColumn(bound.table, table.column("id")),),
        )
        plan = self.planner.plan(select)
        ctx = ExecContext(self.token, self.catalog, self.vis_server,
                          select)
        sj = QepSjExecutor(ctx).execute(plan)
        try:
            return list(sj.anchor_ids.iterate(self.token.ram,
                                              "delete ids"))
        finally:
            sj.free()

    def _check_restrict(self, table: str, ids: List[int]) -> None:
        """Referential integrity: no live parent may reference a dead
        child (GhostDB deletes RESTRICT rather than cascade).

        The check scans ``SKT(parent)`` -- the parent's foreign keys
        live there -- one page at a time, so it is a genuinely charged
        sequential pass over the parent's key table.
        """
        parent = self.schema.parent(table)
        if parent is None or not ids:
            return
        dead = set(ids)
        skt = self.catalog.skts[parent]
        pos = skt.column_positions([table])[0]
        for pid, row in enumerate(skt.heap.scan([pos])):
            if row[0] in dead and self.catalog.is_live(parent, pid):
                raise GhostDBError(
                    f"cannot delete {table} row {row[0]}: still "
                    f"referenced by live {parent} row {pid} "
                    f"(delete the referencing rows first)"
                )
