"""Ordering operators: external sort, top-k heap, index-order scan.

GhostDB answers ``ORDER BY`` / ``LIMIT`` on the token, where RAM is
tiny, so ordering follows the same discipline as the Merge operator:
every buffer is accounted in :class:`~repro.hardware.ram.SecureRam`
and anything that does not fit spills to flash.

Three execution methods (the planner picks per query, see
:class:`~repro.core.plan.SortMethod`):

* :class:`ExternalSorter` -- classic external merge sort.  Sort keys
  are encoded order-preservingly (:class:`SortKeyCodec`), packed into
  u32 words and spilled as value-ordered runs through
  :class:`~repro.storage.runs.U32FileBuilder`; runs are merged with
  one page buffer per open run (reduction passes fold runs together
  when they outnumber the buffer budget, under the Merge operator's
  :func:`~repro.core.merge.reduction_step` policy).
* :class:`TopKHeap` -- when ``offset + limit`` records fit in secure
  RAM, a bounded heap selects them in one pass with zero flash I/O.
* :class:`IndexOrderScan` -- sort avoidance: when the ORDER BY key is
  an indexed hidden column, the climbing index's value-ordered runs
  deliver anchor ids in key order already; the scan just maps them to
  result rows and stops early under ``LIMIT``.

Every record carries the row's position as its last word, so ties are
broken by anchor-id order -- the same stable semantics as the
reference oracle.  All I/O is charged to the ``Sort`` cost label.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.core.merge import reduction_step
from repro.core.operators import ExecContext
from repro.core.plan import OrderPlan, SortMethod
from repro.errors import PlanError
from repro.flash.store import FlashFile, FlashStore
from repro.hardware.ram import SecureRam
from repro.index.keys import KeyCodec
from repro.schema.model import ID_COLUMN, Schema
from repro.sql.binder import BoundColumn, BoundOrderItem, BoundQuery
from repro.storage.runs import U32FileBuilder, U32View

SORT_LABEL = "Sort"

#: one sort record: big-endian key words followed by the row position
Record = Tuple[int, ...]


def sort_projections(bound: BoundQuery, schema: Schema) -> BoundQuery:
    """Extend a query's projections with what its ordering step needs.

    The sort reads key values (and, for the index-order path, the
    anchor id) out of the projected rows, so any ORDER BY column or
    anchor id not already projected is appended as an *internal*
    column; :attr:`~repro.sql.binder.BoundQuery.internal_tail` records
    how many to strip from the result after ordering.  Aggregate
    queries are returned unchanged: their ORDER BY columns are
    restricted to GROUP BY columns, which the output always carries.
    """
    if bound.is_aggregate or not bound.order_by:
        return bound
    if bound.distinct:
        # the binder guarantees every sort key is already projected,
        # and extra columns would break duplicate elimination; the
        # index-order path (the one consumer of the anchor id) is
        # unavailable under DISTINCT anyway
        return bound
    projections = list(bound.projections)
    extra = 0
    for item in bound.order_by:
        if item.column not in projections:
            projections.append(item.column)
            extra += 1
    anchor_id = BoundColumn(bound.anchor,
                            schema.table(bound.anchor).column(ID_COLUMN))
    if anchor_id not in projections:
        projections.append(anchor_id)
        extra += 1
    if extra == 0:
        return bound
    return dataclasses.replace(bound, projections=tuple(projections),
                               internal_tail=bound.internal_tail + extra)


def dedup_rows(rows: List[Tuple]) -> List[Tuple]:
    """SELECT DISTINCT: drop duplicate rows, first occurrence wins.

    Runs before ORDER BY / LIMIT (SQL semantics), so the stable
    tie-break the sort operators provide becomes first-occurrence
    (anchor-id) order of the surviving rows.
    """
    seen = set()
    out: List[Tuple] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out


class SortKeyCodec:
    """Order-preserving multi-key encoding, packed into u32 words.

    Each key column reuses the B+-tree's :class:`KeyCodec` (integers
    offset-binary, floats bit-tricked, chars NUL-padded -- byte order
    == value order); descending keys are byte-complemented so one
    ascending merge realizes any ASC/DESC mix.  The concatenated key
    bytes are zero-padded to a word boundary and split into big-endian
    u32 words, and the row position is appended as the final word:
    records compare as plain int tuples, keys first, position last
    (the stable tie-break).
    """

    def __init__(self, keys: Sequence[BoundOrderItem]):
        self._codecs = [(KeyCodec(item.column.column.type), item.desc)
                        for item in keys]
        self.key_bytes = sum(c.width for c, _ in self._codecs)
        self.key_words = (self.key_bytes + 3) // 4
        #: u32 words per record (keys + 1 position word)
        self.words = self.key_words + 1
        #: bytes of secure RAM one resident record occupies
        self.entry_bytes = self.words * 4

    def encode(self, values: Sequence, position: int) -> Record:
        """Pack one row's key ``values`` and its ``position``."""
        raw = bytearray()
        for (codec, desc), value in zip(self._codecs, values):
            key = codec.encode(value)
            if desc:
                key = bytes(255 - b for b in key)
            raw += key
        raw += b"\x00" * (self.key_words * 4 - len(raw))
        return tuple(
            int.from_bytes(raw[i * 4:(i + 1) * 4], "big")
            for i in range(self.key_words)
        ) + (position,)

    @staticmethod
    def position(record: Record) -> int:
        """The row position a sorted-out record points back at."""
        return record[-1]


class ExternalSorter:
    """RAM-bounded external merge sort over encoded sort records.

    Run formation reserves one RAM chunk (everything left above the
    ``RESERVE_BUFFERS`` promised to the output side), sorts it, and
    spills it as one value-ordered run -- a :class:`U32View` slice of a
    shared packed-u32 flash file, exactly how climbing-index runs are
    stored.  When the input fits one chunk nothing is spilled.  The
    merge holds one page buffer per open run; if runs outnumber the
    budget, reduction passes fold the smallest runs together first
    (the Merge operator's section-3.4 discipline).
    """

    #: page buffers left to the output side during run formation/merge
    RESERVE_BUFFERS = 2

    def __init__(self, store: FlashStore, ram: SecureRam,
                 codec: SortKeyCodec):
        self.store = store
        self.ram = ram
        self.codec = codec
        #: runs spilled to flash during run formation (0 = in-RAM sort)
        self.spilled_runs = 0
        #: reduction passes the merge needed on top of the final merge
        self.reductions = 0

    # ------------------------------------------------------------------
    def sort(self, records: Iterable[Record]) -> Iterator[Record]:
        """Stream ``records`` in ascending order."""
        entry = self.codec.entry_bytes
        chunk_bytes = max(entry, self.ram.free_bytes
                          - self.RESERVE_BUFFERS * self.ram.page_size)
        capacity = max(1, chunk_bytes // entry)
        it = iter(records)
        first = list(itertools.islice(it, capacity))
        if not first:
            return iter(())
        overflow = next(it, None)
        if overflow is None:
            return self._sort_in_ram(first)
        return self._spill_and_merge(first, itertools.chain([overflow], it),
                                     capacity)

    def _sort_in_ram(self, chunk: List[Record]) -> Iterator[Record]:
        """Single-chunk fast path: sort within one RAM reservation."""
        with self.ram.reserve(len(chunk) * self.codec.entry_bytes,
                              "sort chunk"):
            chunk.sort()
            yield from chunk

    def _spill_and_merge(self, first: List[Record],
                         rest: Iterator[Record],
                         capacity: int) -> Iterator[Record]:
        """Run formation (spill every chunk) followed by the merge."""
        files: List[FlashFile] = []
        try:
            builder = U32FileBuilder(self.store, self.ram,
                                     label="sort spill")
            files.append(builder.file)
            marks: List[Tuple[int, int]] = []
            chunk = first
            while chunk:
                with self.ram.reserve(len(chunk) * self.codec.entry_bytes,
                                      "sort chunk"):
                    chunk.sort()
                    start = builder.mark()
                    builder.append_words(
                        [word for record in chunk for word in record]
                    )
                    marks.append((start, builder.mark() - start))
                chunk = list(itertools.islice(rest, capacity))
            builder.finish()
            runs = [U32View(builder.file, start, count)
                    for start, count in marks]
            self.spilled_runs = len(runs)
            runs = self._fit_to_budget(runs, files)
        except BaseException:
            for f in files:
                f.free()
            raise
        return self._merge(runs, files)

    # ------------------------------------------------------------------
    def _fit_to_budget(self, runs: List[U32View],
                       files: List[FlashFile]) -> List[U32View]:
        """Reduction phase: fold runs until open buffers suffice."""
        while True:
            budget, fold = reduction_step(self.ram, self.RESERVE_BUFFERS,
                                          len(runs))
            if len(runs) <= max(1, budget):
                return runs
            runs.sort(key=lambda v: v.count)
            victims, runs = runs[:fold], runs[fold:]
            builder = U32FileBuilder(self.store, self.ram,
                                     label="sort reduce")
            files.append(builder.file)
            iters = [self._records(v) for v in victims]
            try:
                for record in heapq.merge(*iters):
                    builder.append_words(record)
            finally:
                for i in iters:
                    i.close()
            runs.append(builder.finish())
            self.reductions += 1

    def _records(self, view: U32View) -> Iterator[Record]:
        """Group a run's packed words back into records.

        One page is read (and one buffer held) at a time, each page
        once; records may straddle page boundaries, so a word carry is
        kept between pages.
        """
        words = self.codec.words
        pages = view.iter_pages(self.ram, label="sort run")
        try:
            carry: List[int] = []
            for page in pages:
                if carry:
                    page = carry + page
                whole = len(page) - len(page) % words
                for i in range(0, whole, words):
                    yield tuple(page[i:i + words])
                carry = page[whole:]
        finally:
            pages.close()

    def _merge(self, runs: List[U32View],
               files: List[FlashFile]) -> Iterator[Record]:
        """Final merge; frees the spill files when the stream closes."""
        iters = [self._records(v) for v in runs]
        try:
            yield from heapq.merge(*iters)
        finally:
            for i in iters:
                i.close()
            for f in files:
                f.free()


class TopKHeap:
    """Bounded selection of the ``k`` smallest records, RAM-resident.

    The heap's ``k * entry_bytes`` live in accounted secure RAM for the
    duration of the pass; records beyond the current worst are dropped
    on arrival, so the whole input streams through without any flash
    I/O.  The planner only picks this method when ``k`` fits the RAM
    envelope.
    """

    def __init__(self, ram: SecureRam, codec: SortKeyCodec, k: int):
        if k <= 0:
            raise PlanError("top-k needs a positive record budget")
        self.ram = ram
        self.codec = codec
        self.k = k

    def sort(self, records: Iterable[Record]) -> Iterator[Record]:
        """Stream the ``k`` smallest records in ascending order."""
        with self.ram.reserve(self.k * self.codec.entry_bytes,
                              "top-k heap"):
            # a max-heap of the best k via word-wise complement: the
            # heap root is the worst record currently kept
            heap: List[Record] = []
            for record in records:
                inverted = tuple(-w for w in record)
                if len(heap) < self.k:
                    heapq.heappush(heap, inverted)
                elif inverted > heap[0]:
                    heapq.heapreplace(heap, inverted)
            best = sorted(tuple(-w for w in inv) for inv in heap)
        return iter(best)


class IndexOrderScan:
    """Emit result-row positions in climbing-index value order.

    The ORDER BY column's climbing index stores, per value, a sorted
    sublist of anchor ids -- and the sublists themselves are laid out
    in value order.  Scanning them (reversed for DESC) and mapping each
    id through a ``{anchor id -> row position}`` table yields the
    result in sorted order without sorting anything; with a LIMIT the
    scan stops as soon as enough rows surfaced.  The id map is the only
    RAM the scan needs (8 accounted bytes per result row).
    """

    def __init__(self, ctx: ExecContext, order: OrderPlan):
        self.ctx = ctx
        self.order = order

    def positions(self, aids: Sequence[int]) -> Iterator[int]:
        """Row positions ordered by the indexed column's value."""
        ctx = self.ctx
        index = ctx.catalog.attr_index(self.order.index_table,
                                       self.order.index_column)
        if index.delta_entries:
            raise PlanError(
                "index-order scan over an index with delta entries"
            )
        desc = self.order.keys[0].desc
        with ctx.ram.reserve(max(1, len(aids)) * 8, "order-by id map"):
            pos_of = {aid: i for i, aid in enumerate(aids)}
            for view in index.scan_level(ctx.bound.anchor, ctx.ram,
                                         reverse=desc):
                for aid in view.iterate(ctx.ram, label="order-by run"):
                    pos = pos_of.get(aid)
                    if pos is not None:
                        yield pos


class OrderByExecutor:
    """Applies one plan's :class:`OrderPlan` to the projected rows."""

    def __init__(self, ctx: ExecContext, order: OrderPlan):
        self.ctx = ctx
        self.order = order

    # ------------------------------------------------------------------
    def execute(self, rows: List[Tuple]) -> List[Tuple]:
        """Order ``rows`` and apply OFFSET/LIMIT per the plan."""
        order = self.order
        with self.ctx.label(SORT_LABEL):
            if order.method is SortMethod.TRUNCATE:
                return self._slice_list(rows)
            if order.method is SortMethod.INDEX_ORDER:
                positions = IndexOrderScan(self.ctx, order).positions(
                    [row[order.aid_position] for row in rows]
                )
                return [rows[p] for p in self._slice_iter(positions)]
            codec = SortKeyCodec(order.keys)
            records = (
                codec.encode([row[p] for p in order.key_positions], i)
                for i, row in enumerate(rows)
            )
            if order.method is SortMethod.TOP_K:
                k = order.offset + order.limit
                ordered = TopKHeap(self.ctx.ram, codec, k).sort(records)
            else:
                sorter = ExternalSorter(self.ctx.store, self.ctx.ram,
                                        codec)
                ordered = sorter.sort(records)
            out = [rows[codec.position(r)]
                   for r in self._slice_iter(ordered)]
            if order.method is SortMethod.EXTERNAL:
                ledger = self.ctx.token.ledger
                ledger.count("sort_spill_runs", sorter.spilled_runs)
                ledger.count("sort_reductions", sorter.reductions)
            return out

    # ------------------------------------------------------------------
    def _slice_list(self, rows: List[Tuple]) -> List[Tuple]:
        stop = (None if self.order.limit is None
                else self.order.offset + self.order.limit)
        return rows[self.order.offset:stop]

    def _slice_iter(self, it: Iterator) -> Iterator:
        stop = (None if self.order.limit is None
                else self.order.offset + self.order.limit)
        return itertools.islice(it, self.order.offset, stop)


def strip_internal_columns(bound: BoundQuery, names: List[str],
                           rows: List[Tuple]
                           ) -> Tuple[List[str], List[Tuple]]:
    """Drop the internally appended sort columns from a final result."""
    tail = bound.internal_tail
    if not tail:
        return names, rows
    keep = len(bound.projections) - tail
    return names[:keep], [row[:keep] for row in rows]
