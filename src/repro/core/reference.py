"""Reference engine: a naive in-memory SQL evaluator used as a test
oracle.

It evaluates bound queries directly over the raw loaded rows with no
indexes, no RAM constraint and no trust boundary, producing the ground
truth every GhostDB strategy must match bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.aggregate import apply_aggregates, effective_projections
from repro.errors import PlanError
from repro.schema.model import Schema
from repro.sql.binder import BoundColumn, BoundQuery


class ReferenceEngine:
    """Ground-truth evaluator over the loader's raw rows.

    ``rows`` and ``tombstones`` are shared (mutable) with the catalog,
    so the oracle tracks incremental INSERTs and DELETEs for free:
    appended rows show up, tombstoned ids are skipped.
    """

    def __init__(self, schema: Schema, rows: Dict[str, List[Tuple]],
                 tombstones: Optional[Dict[str, Set[int]]] = None):
        self.schema = schema
        self.rows = rows
        self.tombstones = tombstones or {}

    # ------------------------------------------------------------------
    def _descent(self, table: str, target: str) -> List[Tuple[str, int]]:
        """The ``(table, fk position)`` steps from a tuple of ``table``
        down to the single ``target`` id below it (none when equal)."""
        path: List[str] = []
        cur = target
        while cur != table:
            parent = self.schema.parent(cur)
            if parent is None:
                raise PlanError(f"{target} is not below {table}")
            path.append(cur)
            cur = parent
        steps: List[Tuple[str, int]] = []
        for child in reversed(path):
            fk = self.schema.fk_to(cur, child)
            pos = self.schema.table(cur).column_position(fk.name)
            steps.append((cur, pos))
            cur = child
        return steps

    def _descend_id(self, steps: List[Tuple[str, int]], rid: int) -> int:
        """Follow :meth:`_descent`'s ``steps`` down from id ``rid``."""
        for table, pos in steps:
            rid = self.rows[table][rid][pos]
        return rid

    def _value(self, col: BoundColumn, ids: Dict[str, int]):
        rid = ids[col.table]
        if col.column.is_id:
            return rid
        pos = self.schema.table(col.table).column_position(col.column.name)
        return self.rows[col.table][rid][pos]

    @staticmethod
    def _matches(predicate, value) -> bool:
        op = predicate.op
        if op == "=":
            return value == predicate.value
        if op == "<":
            return value < predicate.value
        if op == "<=":
            return value <= predicate.value
        if op == ">":
            return value > predicate.value
        if op == ">=":
            return value >= predicate.value
        if op == "between":
            return predicate.value <= value <= predicate.value2
        if op == "in":
            return value in (predicate.values or ())
        raise PlanError(f"unknown op {op!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    def execute(self, bound: BoundQuery
                ) -> Tuple[List[str], List[Tuple]]:
        """Evaluate the query; rows come out in anchor-id order (or the
        requested ``ORDER BY`` order, ties broken by anchor id)."""
        anchor = bound.anchor
        projections = (effective_projections(bound) if bound.is_aggregate
                       else bound.projections)
        dead = self.tombstones.get(anchor, ())
        descents = {t: self._descent(anchor, t) for t in bound.tables}
        out: List[Tuple] = []
        keys: List[Tuple] = []          # ORDER BY values per output row
        for rid in range(len(self.rows[anchor])):
            if rid in dead:
                # deletes RESTRICT, so skipping dead anchors suffices
                continue
            ids = {t: self._descend_id(steps, rid)
                   for t, steps in descents.items()}
            ok = True
            for sel in bound.selections:
                value = self._value(
                    BoundColumn(sel.table, sel.column), ids
                )
                if not self._matches(sel.predicate, value):
                    ok = False
                    break
            if ok:
                out.append(tuple(self._value(c, ids) for c in projections))
                if bound.order_by and not bound.is_aggregate:
                    keys.append(tuple(self._value(item.column, ids)
                                      for item in bound.order_by))
        if bound.is_aggregate:
            names, out = apply_aggregates(bound, projections, out)
            group_pos = {c: i for i, c in enumerate(bound.group_by)}
            keys = [tuple(row[group_pos[item.column]]
                          for item in bound.order_by) for row in out]
            return names, self._apply_order(bound, out, keys)
        if bound.distinct:
            # SELECT DISTINCT: first occurrence wins, before ORDER BY.
            # Sort keys are projected values (the binder enforces it),
            # so surviving rows keep consistent keys.
            seen = set()
            deduped, dkeys = [], []
            for i, row in enumerate(out):
                if row not in seen:
                    seen.add(row)
                    deduped.append(row)
                    if keys:
                        dkeys.append(keys[i])
            out, keys = deduped, dkeys
        return ([str(c) for c in bound.projections],
                self._apply_order(bound, out, keys))

    @staticmethod
    def _apply_order(bound: BoundQuery, rows: List[Tuple],
                     keys: List[Tuple]) -> List[Tuple]:
        """Sort by the ORDER BY keys (stable, so ties keep anchor-id
        order) and apply OFFSET / LIMIT."""
        if bound.order_by:
            pairs = list(zip(keys, rows))
            # multi-pass stable sort, least significant key first, so
            # per-key ASC/DESC works for any orderable value type
            for pos in range(len(bound.order_by) - 1, -1, -1):
                pairs.sort(key=lambda kr, p=pos: kr[0][p],
                           reverse=bound.order_by[pos].desc)
            rows = [row for _, row in pairs]
        if bound.offset:
            rows = rows[bound.offset:]
        if bound.limit is not None:
            rows = rows[:bound.limit]
        return rows
