"""The Untrusted engine: Visible data storage and selection.

Untrusted is the powerful, insecure side (a PC and/or remote servers).
It stores the Visible image of every table -- the visible columns plus
the replicated surrogate key -- and is granted exactly three rights
(paper section 3.3):

1. compute the Visible predicates of a query,
2. project the result on Visible columns,
3. send the result to Secure.

Its compute time is considered free relative to the token (it is "the
powerful personal computer"); only the *communication* of its results
into Secure is charged, by the :class:`VisServer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.schema.model import Column, Schema


@dataclass(frozen=True)
class VisPredicate:
    """One visible selection, as shipped inside a Vis request."""

    column: str
    op: str                      # = < <= > >= between in
    value: object = None
    value2: object = None
    values: Optional[Tuple] = None


class UntrustedEngine:
    """In-memory store of the Visible images of all tables."""

    def __init__(self, schema: Schema):
        self.schema = schema
        # per table: list of visible-column tuples, position == id
        self._rows: Dict[str, List[Tuple]] = {
            name: [] for name in schema.tables
        }
        self._visible_cols: Dict[str, List[Column]] = {
            name: schema.table(name).visible_columns
            for name in schema.tables
        }

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load(self, table: str, visible_rows: Sequence[Tuple]) -> None:
        """Append visible rows (id = current cardinality + position)."""
        cols = self._visible_cols[table]
        for row in visible_rows:
            if len(row) != len(cols):
                raise StorageError(
                    f"{table}: expected {len(cols)} visible values, "
                    f"got {len(row)}"
                )
            self._rows[table].append(tuple(row))

    def n_rows(self, table: str) -> int:
        return len(self._rows[table])

    def compact(self, table: str, dead_ids: Sequence[int]) -> int:
        """Drop ``dead_ids`` and re-densify the visible image.

        Mirrors the token-side compaction of one table: surviving rows
        keep their relative order, so position == id stays true with
        the same dense remap the Secure side applied to its hidden
        image.  Returns the number of rows dropped.
        """
        dead = set(dead_ids)
        if not dead:
            return 0
        rows = self._rows[table]
        self._rows[table] = [row for rid, row in enumerate(rows)
                             if rid not in dead]
        return len(rows) - len(self._rows[table])

    def visible_columns(self, table: str) -> List[Column]:
        return list(self._visible_cols[table])

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _col_pos(self, table: str, column: str) -> int:
        for i, c in enumerate(self._visible_cols[table]):
            if c.name == column:
                return i
        raise StorageError(
            f"{column!r} is not a visible column of {table!r}"
        )

    def _matcher(self, table: str, predicates: Sequence[VisPredicate]):
        """A compiled ``row -> bool`` for ``predicates`` (or None).

        Untrusted's compute is free in the simulation, but its Python
        evaluation is on the host's hot path -- a single closure call
        per row replaces one ``matches()`` dispatch per predicate.
        """
        if not predicates:
            return None
        tests = []
        for p in predicates:
            pos = self._col_pos(table, p.column)
            op, v, v2 = p.op, p.value, p.value2
            if op == "=":
                tests.append(lambda row, pos=pos, v=v: row[pos] == v)
            elif op == "<":
                tests.append(lambda row, pos=pos, v=v: row[pos] < v)
            elif op == "<=":
                tests.append(lambda row, pos=pos, v=v: row[pos] <= v)
            elif op == ">":
                tests.append(lambda row, pos=pos, v=v: row[pos] > v)
            elif op == ">=":
                tests.append(lambda row, pos=pos, v=v: row[pos] >= v)
            elif op == "between":
                tests.append(lambda row, pos=pos, v=v, v2=v2:
                             v <= row[pos] <= v2)
            elif op == "in":
                allowed = frozenset(p.values or ())
                tests.append(lambda row, pos=pos, allowed=allowed:
                             row[pos] in allowed)
            else:
                raise StorageError(f"unknown predicate op {op!r}")
        if len(tests) == 1:
            return tests[0]
        return lambda row, tests=tests: all(t(row) for t in tests)

    def select_ids(self, table: str,
                   predicates: Sequence[VisPredicate]) -> List[int]:
        """IDs of rows satisfying all ``predicates`` (sorted)."""
        match = self._matcher(table, predicates)
        rows = self._rows[table]
        if match is None:
            return list(range(len(rows)))
        return [rid for rid, row in enumerate(rows) if match(row)]

    def select_rows(self, table: str, predicates: Sequence[VisPredicate],
                    columns: Sequence[str]) -> List[Tuple]:
        """``(id, col...)`` tuples for matching rows, sorted by id."""
        positions = [self._col_pos(table, c) for c in columns]
        match = self._matcher(table, predicates)
        rows = self._rows[table]
        if match is None:
            return [(rid, *(row[pos] for pos in positions))
                    for rid, row in enumerate(rows)]
        return [(rid, *(row[pos] for pos in positions))
                for rid, row in enumerate(rows) if match(row)]

    def count(self, table: str,
              predicates: Sequence[VisPredicate]) -> int:
        """Cardinality of the visible selection (planner statistics)."""
        return len(self.select_ids(table, predicates))
