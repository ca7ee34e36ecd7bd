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

Free on the simulated clock is not free on the host: a selection is
answered from a per-column sorted index (:class:`_ColumnIndex`) in
time proportional to the answer, and the row-by-row ``_matcher`` scan
-- the specification of what a selection means -- runs only over what
an index does not cover.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter, le
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.schema.model import Column, Schema

#: Rows appended since an index was built are scanned; once they are
#: more than this share of the table the index is rebuilt over them.
_FOLD_ABOVE = 0.125


@dataclass(frozen=True)
class VisPredicate:
    """One visible selection, as shipped inside a Vis request."""

    column: str
    op: str                      # = < <= > >= between in
    value: object = None
    value2: object = None
    values: Optional[Tuple] = None


class _ColumnIndex(NamedTuple):
    """One visible column of rows ``[0, len(ids))`` in ``(value, id)``
    order: ``keys[i]`` is the value of row ``ids[i]``."""

    keys: List
    ids: array

    @classmethod
    def build(cls, rows: List[Tuple], pos: int) -> Optional["_ColumnIndex"]:
        """Sort column ``pos`` of ``rows``; None when its values do not
        order (mixed types raise, a NaN sorts but fails the check)."""
        column = [row[pos] for row in rows]
        try:
            # the sort is stable, so equal values stay in id order
            order = sorted(range(len(column)), key=column.__getitem__)
            keys = [column[rid] for rid in order]
            if not all(map(le, keys, islice(keys, 1, None))):
                return None
        except TypeError:
            return None
        return cls(keys, array("I", order))

    def spans(self, p: VisPredicate) -> Optional[List[Tuple[int, int]]]:
        """``[lo, hi)`` slices of the order holding exactly the indexed
        rows that satisfy ``p``; None when ``p``'s constants do not
        compare with the column (the scan decides what that means)."""
        keys, op = self.keys, p.op
        constants = (p.values or () if op == "in" else
                     (p.value, p.value2) if op == "between" else (p.value,))
        if any(c != c for c in constants):
            return None  # a NaN bisects to a span, yet matches no row
        try:
            if op == "=":
                spans = [(bisect_left(keys, p.value),
                          bisect_right(keys, p.value))]
            elif op == "<":
                spans = [(0, bisect_left(keys, p.value))]
            elif op == "<=":
                spans = [(0, bisect_right(keys, p.value))]
            elif op == ">":
                spans = [(bisect_right(keys, p.value), len(keys))]
            elif op == ">=":
                spans = [(bisect_left(keys, p.value), len(keys))]
            elif op == "between":
                spans = [(bisect_left(keys, p.value),
                          bisect_right(keys, p.value2))]
            else:  # in: one = span per distinct constant
                spans = [(bisect_left(keys, v), bisect_right(keys, v))
                         for v in set(constants)]
        except TypeError:
            return None
        return [(lo, hi) for lo, hi in spans if lo < hi]


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
        # per table: column -> index over a prefix of the table's rows,
        # built by the first predicate on the column; None = the
        # column's values do not order
        self._indexes: Dict[str, Dict[str, Optional[_ColumnIndex]]] = {
            name: {} for name in schema.tables
        }
        #: rows looked at to answer selections so far (index spans,
        #: appended tails, full scans): the work next to the answers
        self.rows_examined = 0

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
        self._indexes[table].clear()
        return len(rows) - len(self._rows[table])

    def truncate(self, table: str, n: int) -> None:
        """Cut ``table`` back to its first ``n`` rows (DML rollback)."""
        rows = self._rows[table]
        if n < len(rows):
            del rows[n:]
            self._indexes[table].clear()

    def to_meta(self) -> Dict[str, List[Tuple]]:
        """Durable form: every table's row list, not copied (indexes
        are rebuilt on demand)."""
        return self._rows

    @classmethod
    def from_meta(cls, schema: Schema,
                  meta: Dict[str, List[Tuple]]) -> "UntrustedEngine":
        """An engine over :meth:`to_meta` output, adopted as is."""
        restored = cls(schema)
        restored._rows = meta
        return restored

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

        This scan is what a selection *means*; the index only answers
        faster.  A single closure call per row replaces one
        ``matches()`` dispatch per predicate.
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

    def _index(self, table: str, column: str) -> Optional[_ColumnIndex]:
        """The index of ``table.column``: built on first use, rebuilt
        once the rows appended since outgrow ``_FOLD_ABOVE``."""
        indexes, rows = self._indexes[table], self._rows[table]
        index = indexes.get(column)
        if column not in indexes or (
                index is not None
                and len(rows) - len(index.ids) > _FOLD_ABOVE * len(rows)):
            index = indexes[column] = _ColumnIndex.build(
                rows, self._col_pos(table, column))
        return index

    def _narrowest(self, table: str, predicates: Sequence[VisPredicate]
                   ) -> Optional[Tuple[int, List[Tuple[int, int]],
                                       _ColumnIndex, VisPredicate]]:
        """``(width, spans, index, predicate)`` of the predicate whose
        index span is the narrowest; None when some predicate cannot be
        answered from an index (its column does not order, or its
        constant does not compare with it), which leaves the whole
        selection -- and what such a comparison means -- to the scan."""
        best = None
        for p in predicates:
            index = self._index(table, p.column)
            spans = index.spans(p) if index is not None else None
            if spans is None:
                return None
            width = sum(hi - lo for lo, hi in spans)
            if best is None or width < best[0]:
                best = (width, spans, index, p)
        return best

    def select_ids(self, table: str,
                   predicates: Sequence[VisPredicate]) -> List[int]:
        """IDs of rows satisfying all ``predicates`` (sorted): the one
        candidate routine every selection goes through.

        The narrowest predicate's index span gives the candidates among
        rows ``[0, covered)``; the other predicates filter those, and
        the ``_matcher`` scan answers for rows ``[covered, n)`` -- the
        rows appended since that index was built, or every row
        (``covered == 0``) when :meth:`_narrowest` finds no span.
        """
        rows = self._rows[table]
        match = self._matcher(table, predicates)
        if match is None:
            self.rows_examined += len(rows)
            return list(range(len(rows)))
        covered, ids = 0, []
        best = self._narrowest(table, predicates)
        if best is not None:
            width, spans, index, narrowest = best
            covered = len(index.ids)
            candidates = array("I")
            for lo, hi in spans:
                candidates += index.ids[lo:hi]
            keep = self._matcher(
                table, [p for p in predicates if p is not narrowest])
            # an = span is in id order already, which sorted() sees
            ids = sorted(candidates if keep is None else
                         [rid for rid in candidates if keep(rows[rid])])
            self.rows_examined += width
        self.rows_examined += len(rows) - covered
        tail = rows[covered:] if covered else rows
        ids.extend(rid for rid, row in enumerate(tail, covered)
                   if match(row))
        return ids

    def project(self, table: str, ids: List[int],
                columns: Sequence[str]) -> List[Tuple]:
        """``(id, col...)`` tuples of the rows ``ids``, in that order."""
        positions = [self._col_pos(table, c) for c in columns]
        picked = list(map(self._rows[table].__getitem__, ids))
        return list(zip(ids, *(map(itemgetter(pos), picked)
                               for pos in positions)))

    def count(self, table: str,
              predicates: Sequence[VisPredicate]) -> int:
        """Cardinality of the visible selection (planner statistics)."""
        return len(self.select_ids(table, predicates))
