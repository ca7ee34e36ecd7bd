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
from itertools import islice
from operator import itemgetter, le
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.predicate import Predicate
from repro.schema.model import Column, Schema

#: Rows appended since an index was built are scanned; once they are
#: more than this share of the table the index is rebuilt over them.
_FOLD_ABOVE = 0.125


#: one visible selection as shipped inside a Vis request
VisSelection = Tuple[str, Predicate]


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

    def spans(self, p: Predicate) -> Optional[List[Tuple[int, int]]]:
        """``[lo, hi)`` slices of the order holding exactly the indexed
        rows that satisfy ``p``; None when ``p``'s constants do not
        compare with the column (the scan decides what that means)."""
        keys = self.keys
        if any(c != c for c in p.constants()):
            return None  # a NaN bisects to a span, yet matches no row
        try:
            points = p.points()
            if points is not None:  # one = span per distinct constant
                spans = [(bisect_left(keys, v), bisect_right(keys, v))
                         for v in set(points)]
            else:
                lo, lo_inc, hi, hi_inc = p.bounds()
                spans = [(
                    0 if lo is None else
                    (bisect_left if lo_inc else bisect_right)(keys, lo),
                    len(keys) if hi is None else
                    (bisect_right if hi_inc else bisect_left)(keys, hi),
                )]
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

    def __getstate__(self) -> Dict[str, Any]:
        """The image form: the rows; indexes are rebuilt on demand and
        ``rows_examined`` counts this process's work."""
        return {**self.__dict__, "rows_examined": 0,
                "_indexes": {name: {} for name in self._indexes}}

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

    def _matcher(self, table: str, predicates: Sequence[VisSelection]):
        """A compiled ``row -> bool`` for ``predicates`` (or None).

        This scan is what a selection *means*; the index only answers
        faster.  Each predicate contributes its operator-specialised
        ``matcher()``, so no operator is dispatched per row.
        """
        if not predicates:
            return None
        tests = [(self._col_pos(table, column), p.matcher())
                 for column, p in predicates]
        if len(tests) == 1:
            (pos, match), = tests
            return lambda row: match(row[pos])
        return lambda row: all(match(row[pos]) for pos, match in tests)

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

    def _narrowest(self, table: str, predicates: Sequence[VisSelection]
                   ) -> Optional[Tuple[int, List[Tuple[int, int]],
                                       _ColumnIndex, VisSelection]]:
        """``(width, spans, index, selection)`` of the predicate whose
        index span is the narrowest; None when some predicate cannot be
        answered from an index (its column does not order, or its
        constant does not compare with it), which leaves the whole
        selection -- and what such a comparison means -- to the scan."""
        best = None
        for selection in predicates:
            column, p = selection
            index = self._index(table, column)
            spans = index.spans(p) if index is not None else None
            if spans is None:
                return None
            width = sum(hi - lo for lo, hi in spans)
            if best is None or width < best[0]:
                best = (width, spans, index, selection)
        return best

    def select_ids(self, table: str,
                   predicates: Sequence[VisSelection]) -> List[int]:
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
