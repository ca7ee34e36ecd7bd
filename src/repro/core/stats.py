"""The statistics catalog: per-column sketches for the cost-based planner.

The paper's experiments (Figures 9-13) show that the winning strategy
depends on predicate selectivities and table sizes, which means the
planner must *know* them.  Probing Untrusted with count requests works
(and is leak-free) but costs one round trip per planned table; the
token can do better by keeping its own statistics, gathered while the
rows stream through ``build()`` (and each table's compaction swap) and
maintained by the incremental DML append paths.

Each tracked column carries one :class:`ColumnStats` sketch:

* ``n`` -- exact live-value count (insert +1, delete -1);
* ``counts`` -- per-value frequencies, exact while the observed domain
  fits ``capacity`` distinct values; beyond that the least common
  entries spill into an aggregated *residual* (count + distinct
  estimate), Postgres-MCV style;
* ``min_key``/``max_key`` -- value bounds.  Inserts tighten/extend
  them; deletes leave them untouched, so after deletes they are
  conservative *bounds*, re-tightened by :meth:`TableStats.from_rows`
  at the next ``db.compact(table)`` (or ``GhostDB.analyze()``).

The sketches are planner metadata living beside the catalog on the
secure chip; like the climbing indexes' delta-key Bloom filters they
are charged to the token's storage budget conceptually, not to any
query's working RAM.  Nothing here ever crosses the channel: hidden
*and* visible column statistics stay on the token, which is exactly
what lets the planner estimate selectivities without a single
outbound probe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.predicate import Predicate
from repro.schema.model import Table

#: distinct values tracked exactly before spilling into the residual;
#: covers the synthetic workloads' whole domains (v1 cycles 0..999)
DEFAULT_CAPACITY = 1024


@dataclass
class ColumnStats:
    """A frequency/bounds sketch over one column's live values."""

    capacity: int = DEFAULT_CAPACITY
    n: int = 0
    counts: Counter = field(default_factory=Counter)
    residual_count: int = 0
    residual_distinct: int = 0
    min_key: object = None
    max_key: object = None

    # ------------------------------------------------------------------
    # construction and maintenance
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, values: Iterable,
                    capacity: int = DEFAULT_CAPACITY) -> "ColumnStats":
        """Gather a sketch over ``values`` from scratch.

        The :meth:`add` loop is the specification.  While ``values``
        hold at most ``capacity`` distinct keys nothing can spill, and
        the loop reduces to a ``Counter`` (keys in first-seen order, as
        the loop inserts them) and ``min`` / ``max`` (both keep the
        first of equal extremes, as the loop's strict comparisons do --
        ``0.0`` / ``-0.0`` included).  Past capacity the loop runs.
        """
        values = list(values)
        counts = Counter(values)
        if len(counts) <= capacity:
            return cls(capacity=capacity, n=len(values), counts=counts,
                       min_key=min(values, default=None),
                       max_key=max(values, default=None))
        stats = cls(capacity=capacity)
        for value in values:
            stats.add(value)
        return stats

    def copy(self) -> "ColumnStats":
        """An equal, independent sketch (the DML journal's snapshot)."""
        return replace(self, counts=Counter(self.counts))

    def add(self, value) -> None:
        """Record one inserted value."""
        self.n += 1
        if self.min_key is None or value < self.min_key:
            self.min_key = value
        if self.max_key is None or value > self.max_key:
            self.max_key = value
        if value in self.counts or len(self.counts) < self.capacity:
            self.counts[value] += 1
            return
        self._spill_for(value)

    def _spill_for(self, value) -> None:
        """Track ``value`` by evicting the least common entry if that
        entry is rarer; otherwise count it in the residual.

        A residual arrival may duplicate a value already spilled, but
        membership is unknowable without tracking it; counting each
        arrival as a fresh distinct keeps the per-value residual
        estimate (``residual_count / residual_distinct``) at ~1 --
        untracked values are rare by construction (the common ones are
        the tracked MCVs), so biasing their equality selectivity low
        is the right error for the optimizer."""
        victim, v_count = min(self.counts.items(), key=lambda kv: kv[1])
        if v_count <= 1:
            del self.counts[victim]
            self.residual_count += v_count
            self.residual_distinct += 1
            self.counts[value] = 1
        else:
            self.residual_count += 1
            self.residual_distinct += 1

    def remove(self, value) -> None:
        """Record one deleted value (bounds stay conservative)."""
        self.n -= 1
        if value in self.counts:
            self.counts[value] -= 1
            if self.counts[value] == 0:
                del self.counts[value]
        else:
            self.residual_count = max(0, self.residual_count - 1)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def n_distinct(self) -> int:
        """(Estimated) live distinct values."""
        return len(self.counts) + self.residual_distinct

    def most_common(self, k: int = 8) -> List[Tuple[object, int]]:
        """The ``k`` most common tracked values with their counts."""
        return self.counts.most_common(k)

    # ------------------------------------------------------------------
    # selectivity estimation
    # ------------------------------------------------------------------
    def _eq_count(self, value) -> float:
        if value in self.counts:
            return float(self.counts[value])
        if self.residual_distinct == 0:
            return 0.0
        return self.residual_count / self.residual_distinct

    def _interval_fraction(self, lo, hi) -> float:
        """Fraction of the [min, max] span covered by [lo, hi]
        (uniform assumption for untracked values)."""
        if self.min_key is None:
            return 0.0
        try:
            span = self.max_key - self.min_key
            if span <= 0:
                return 1.0 if lo <= self.min_key <= hi else 0.0
            lo = max(lo, self.min_key)
            hi = min(hi, self.max_key)
            return max(0.0, min(1.0, (hi - lo) / span))
        except TypeError:      # non-numeric (char) columns
            return 0.5

    def _range_count(self, predicate: Predicate) -> float:
        match = predicate.matcher()
        tracked = sum(c for v, c in self.counts.items() if match(v))
        if self.residual_count:
            lo, _, hi, _ = predicate.bounds()
            tracked += self.residual_count * self._interval_fraction(
                self.min_key if lo is None else lo,
                self.max_key if hi is None else hi)
        return tracked

    def selectivity(self, predicate: Predicate) -> float:
        """Estimated fraction of live rows satisfying ``predicate``."""
        if self.n <= 0:
            return 0.0
        points = predicate.points()
        if points is not None:
            matched = sum(self._eq_count(v) for v in set(points))
        else:
            matched = self._range_count(predicate)
        return max(0.0, min(1.0, matched / self.n))


class TableStats:
    """Sketches for every non-fk data column of one table."""

    def __init__(self, table: Table, capacity: int = DEFAULT_CAPACITY):
        self.table = table
        self.capacity = capacity
        self._positions = [
            (c.name, table.column_position(c.name))
            for c in table.data_columns if not c.is_foreign_key
        ]
        self.columns: Dict[str, ColumnStats] = {
            name: ColumnStats(capacity=capacity)
            for name, _ in self._positions
        }

    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, table: Table, rows: Sequence[Tuple],
                  capacity: int = DEFAULT_CAPACITY) -> "TableStats":
        """Gather stats from scratch (build/rebuild/analyze path), one
        column at a time."""
        stats = cls(table, capacity)
        for name, pos in stats._positions:
            stats.columns[name] = ColumnStats.from_values(
                map(itemgetter(pos), rows), capacity)
        return stats

    def copy(self) -> "TableStats":
        """An equal, independent catalog entry: the sketches are
        copied, the immutable schema ``Table`` is shared."""
        twin = TableStats(self.table, self.capacity)
        twin.columns = {name: s.copy() for name, s in self.columns.items()}
        return twin

    @property
    def n_rows(self) -> int:
        """Live rows seen by the sketches (all columns agree)."""
        if not self._positions:
            return 0
        return self.columns[self._positions[0][0]].n

    def add_row(self, row: Tuple) -> None:
        """Fold one inserted row (``data_columns`` order) in."""
        for name, pos in self._positions:
            self.columns[name].add(row[pos])

    def remove_row(self, row: Tuple) -> None:
        """Fold one deleted row (``data_columns`` order) out."""
        for name, pos in self._positions:
            self.columns[name].remove(row[pos])

    def distinct(self, name: str) -> Optional[int]:
        """Estimated live distinct values of one column.

        Feeds the planner's output-cardinality estimates -- GROUP BY
        group counts and the ordering step's run-count/top-k sizing --
        alongside :meth:`selectivity`.  ``None`` when the column is not
        sketched (foreign keys, unknown names).
        """
        stats = self.columns.get(name)
        return stats.n_distinct if stats is not None else None

    def selectivity(self, column: str, predicate: Predicate) -> float:
        """Estimated selectivity; unknown columns fall back to 0.5."""
        stats = self.columns.get(column)
        if stats is None:
            return 0.5
        return stats.selectivity(predicate)

    def describe(self) -> Dict[str, Dict]:
        """Plain-dict summary (tests, ``EXPLAIN``, docs)."""
        return {
            name: {
                "n": s.n,
                "n_distinct": s.n_distinct,
                "min": s.min_key,
                "max": s.max_key,
                "mcv": s.most_common(4),
            }
            for name, s in self.columns.items()
        }
