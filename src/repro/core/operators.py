"""Query execution primitives (paper section 3.3).

Each operator charges its flash and channel traffic to a cost label so
the executor can reproduce the paper's per-operator decomposition
(Figures 15/16): ``Vis``, ``CI``, ``Merge``, ``SJoin``, ``Bloom``,
``Store``, ``Project``.

Most operators exist in two granularities: the scalar id-at-a-time
generators (the reference engine, ``REPRO_SCALAR_EXEC=1``) and the
batch ``*_chunks`` pipelines that move one decoded page of ids per
step.  A batch pipeline chunk is **column-major**: ``cols[0]`` is the
anchor-id page, ``cols[i]`` the matching ids of the i-th joined table.
Flash access patterns, RAM buffer lifetimes and cost labels are
identical between the two engines -- only the host-Python work per id
differs.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.catalog import SecureCatalog
from repro.core.execmode import scalar_exec
from repro.hardware.token import SecureToken
from repro.index.bloom import BloomFilter
from repro.predicate import Predicate
from repro.sql.binder import BoundQuery, BoundSelection
from repro.storage.runs import IdRun, U32FileBuilder, U32View
from repro.untrusted.server import VisRequest, VisResult, VisServer

VIS_LABEL = "Vis"
CI_LABEL = "CI"
SJOIN_LABEL = "SJoin"
BLOOM_LABEL = "Bloom"
STORE_LABEL = "Store"
PROJECT_LABEL = "Project"

#: a column-major page of joined ids flowing through the batch pipeline
Chunk = List[List[int]]


class ExecContext:
    """Everything operators need: token, catalog, Vis server, query."""

    def __init__(self, token: SecureToken, catalog: SecureCatalog,
                 vis_server: VisServer, bound: BoundQuery):
        self.token = token
        self.catalog = catalog
        self.vis = vis_server
        self.bound = bound
        self._vis_cache: Dict[Tuple[str, Tuple[str, ...]], VisResult] = {}

    @property
    def ram(self):
        return self.token.ram

    @property
    def store(self):
        return self.token.store

    def label(self, name: str):
        return self.token.label(name)

    def seed_vis(self, table: str, result: VisResult,
                 columns: Sequence[str] = ()) -> None:
        """Pre-populate the Vis cache with an already-downloaded result
        (the batched-execution path prefetches whole batches of Vis
        requests in one round trip before running each query)."""
        self._vis_cache[(table, tuple(columns))] = result


# ---------------------------------------------------------------------------
# Vis
# ---------------------------------------------------------------------------

def vis_request(bound: BoundQuery, table: str,
                columns: Sequence[str] = ()) -> VisRequest:
    """The Vis request for ``table``: its visible selections as
    ``(column, predicate)`` pairs, plus the columns to project."""
    return VisRequest(
        table,
        tuple((s.column.name, s.predicate)
              for s in bound.visible_selections(table)),
        tuple(columns),
    )


def op_vis(ctx: ExecContext, table: str,
           columns: Sequence[str] = ()) -> VisResult:
    """``Vis(Q, T, pi)``: fetch the visible selection of ``table``.

    Results are cached per (table, columns): the paper notes the
    redundant lookup in Cross-Post plans "can be easily avoided in
    practice", and repeated identical Vis requests would be charged
    twice otherwise.  An id-only request (``columns=()``) is also
    served from any cached result of the same table -- every cached
    entry was computed under the same visible predicates and already
    carries the sorted id list, so paying a second channel round trip
    for a subset would be pure waste.
    """
    key = (table, tuple(columns))
    if key not in ctx._vis_cache:
        if not columns:
            # any cached superset of the same table serves pure ids
            for (cached_table, _), cached in ctx._vis_cache.items():
                if cached_table == table:
                    ctx._vis_cache[key] = VisResult(ids=cached.ids)
                    return ctx._vis_cache[key]
        with ctx.label(VIS_LABEL):
            ctx._vis_cache[key] = ctx.vis.vis(
                vis_request(ctx.bound, table, columns))
    return ctx._vis_cache[key]


# ---------------------------------------------------------------------------
# CI
# ---------------------------------------------------------------------------

def op_ci(ctx: ExecContext, selection: BoundSelection,
          target: str) -> List[IdRun]:
    """Climbing-index lookup of a hidden selection, targeting ``target``.

    Covers rows appended since the build through the index's delta log
    and the catalog's fk deltas; extra ids ride along as one sorted
    RAM-resident run.
    """
    index = ctx.catalog.attr_index(selection.table, selection.column.name)
    with ctx.label(CI_LABEL):
        views, extra = index.lookup_all(selection.predicate, target,
                                        ctx.ram, ctx.catalog.fk_deltas)
    runs = [IdRun.flash(v) for v in views]
    if extra:
        runs.append(IdRun.memory(extra))
    return runs


def op_ci_ids(ctx: ExecContext, table: str, ids: Sequence[int],
              target: str) -> List[IdRun]:
    """Climb a list of ``table`` IDs to ``target`` via the id index.

    This is Pre-Filter's expensive step: one index descent per ID.
    """
    index = ctx.catalog.id_index(table)
    with ctx.label(CI_LABEL):
        views, extra = index.lookup_all(
            Predicate("in", values=ids), target, ctx.ram,
            ctx.catalog.fk_deltas,
        )
    runs = [IdRun.flash(v) for v in views]
    if extra:
        runs.append(IdRun.memory(extra))
    return runs


# ---------------------------------------------------------------------------
# SJoin
# ---------------------------------------------------------------------------

def op_sjoin(ctx: ExecContext, anchor: str, anchor_ids: Iterable[int],
             tables: Sequence[str]) -> Iterator[Tuple[int, ...]]:
    """Key semi-join of sorted anchor IDs against ``SKT(anchor)``.

    Yields ``(anchor_id, id_of_tables[0], ...)``.  The SKT is walked in
    id order; pages containing no qualifying row are skipped, which is
    why Pre-Filter pays less I/O here at high selectivity and why the
    benefit vanishes once most pages hold a match (sV > ~0.1).
    Holds one RAM buffer for the current SKT page.
    """
    skt = ctx.catalog.skt(anchor)
    positions = skt.column_positions(tables)
    buf = ctx.ram.alloc_buffer("sjoin page")
    try:
        cur_page = -1
        rows: Dict[int, Tuple[int, ...]] = {}
        for aid in anchor_ids:
            with ctx.label(SJOIN_LABEL):
                page = skt.heap.page_of_row(aid)
                if page != cur_page:
                    rows = dict(skt.heap.read_rows_on_page(page))
                    cur_page = page
            row = rows[aid]
            yield (aid, *(row[p] for p in positions))
    finally:
        buf.free()


def op_sjoin_chunks(ctx: ExecContext, anchor: str,
                    anchor_chunks: Iterator[List[int]],
                    tables: Sequence[str]) -> Iterator[Chunk]:
    """Batch SJoin: column-major pages of ``(anchor, *tables)`` ids.

    Walks ``SKT(anchor)`` exactly like :func:`op_sjoin` -- each SKT
    page read once when the sorted anchor stream first touches it, one
    RAM buffer held, reads charged to ``SJoin`` -- but decodes only the
    needed rows, one precompiled-struct call each.
    """
    skt = ctx.catalog.skt(anchor)
    heap = skt.heap
    rows_per_page = heap.rows_per_page
    row_width = heap.codec.row_width
    sub, reorder = skt.batch_decoder(tables)
    unpack_from = sub.unpack_from
    buf = ctx.ram.alloc_buffer("sjoin page")
    try:
        cur_page = -1
        raw = b""
        for chunk in anchor_chunks:
            if not chunk:
                continue
            cols: Chunk = [chunk] + [[] for _ in tables]
            appends = [c.append for c in cols[1:]]
            for aid in chunk:
                page = aid // rows_per_page
                if page != cur_page:
                    with ctx.label(SJOIN_LABEL):
                        raw = heap.read_page_raw(page)
                    cur_page = page
                row = unpack_from(raw, (aid - page * rows_per_page)
                                  * row_width)
                for append, slot in zip(appends, reorder):
                    append(row[slot])
            yield cols
    finally:
        buf.free()


# ---------------------------------------------------------------------------
# Bloom filters
# ---------------------------------------------------------------------------

def op_build_bf(ctx: ExecContext, ids: Iterable[int], n_items: int,
                max_bytes: Optional[int] = None) -> BloomFilter:
    """``BuildBF``: Bloom filter over an ID stream (RAM-resident)."""
    with ctx.label(BLOOM_LABEL):
        bf = BloomFilter(ctx.ram, n_items, max_bytes=max_bytes,
                         label="post-filter bloom")
        bf.add_all(ids)
    return bf


def op_probe_bf(ctx: ExecContext, bf: BloomFilter,
                tuples: Iterator[Tuple[int, ...]],
                position: int) -> Iterator[Tuple[int, ...]]:
    """``ProbeBF``: keep tuples whose ``position``-th id may be in ``bf``."""
    for tup in tuples:
        if tup[position] in bf:
            yield tup


def op_probe_bf_chunks(bf: BloomFilter, chunks: Iterator[Chunk],
                       position: int) -> Iterator[Chunk]:
    """Batch ``ProbeBF``: filter column-major chunks by one Bloom probe
    per id (identical bits to the scalar probe)."""
    for cols in chunks:
        keep = bf.contains_many(cols[position])
        if 0 not in keep:
            yield cols
            continue
        filtered = [list(compress(col, keep)) for col in cols]
        if filtered[0]:
            yield filtered


# ---------------------------------------------------------------------------
# Store (materialization of the QEPSJ result, vertically partitioned)
# ---------------------------------------------------------------------------

def op_store_columns(ctx: ExecContext, tuples: Iterator[Tuple[int, ...]],
                     tables: Sequence[str]
                     ) -> Tuple[Dict[str, U32View], int]:
    """Materialize a tuple stream as one U32 column file per table.

    The QEPSJ result is vertically partitioned "to avoid repetitive
    reads of unnecessary columns" during projection; all columns are in
    the same (anchor-id) order and have the same cardinality.
    """
    builders = [
        U32FileBuilder(ctx.store, ctx.ram, label=f"store {t}")
        for t in tables
    ]
    count = 0
    with ctx.label(STORE_LABEL):
        for tup in tuples:
            for value, builder in zip(tup, builders):
                builder.add(value)
            count += 1
        views = {t: b.finish() for t, b in zip(tables, builders)}
    return views, count


def op_store_columns_chunks(ctx: ExecContext, chunks: Iterator[Chunk],
                            tables: Sequence[str]
                            ) -> Tuple[Dict[str, U32View], int]:
    """Batch Store: append whole column pages per call.

    Writes byte-identical column files to :func:`op_store_columns`
    (same page flush points, same ``Store``-labelled charges).
    """
    builders = [
        U32FileBuilder(ctx.store, ctx.ram, label=f"store {t}")
        for t in tables
    ]
    count = 0
    with ctx.label(STORE_LABEL):
        for cols in chunks:
            for col, builder in zip(cols, builders):
                builder.append_words(col)
            count += len(cols[0])
        views = {t: b.finish() for t, b in zip(tables, builders)}
    return views, count


# ---------------------------------------------------------------------------
# Post-Select (exact alternative to Post-Filter, Figure 11)
# ---------------------------------------------------------------------------

def post_select_chunk_ids(avail_bytes: int) -> int:
    """Vis ids one Post-Select pass holds: ``avail_bytes`` less an 8 KB
    reserve for the column cursors and builders, never under 4 KB."""
    return max(4096, avail_bytes - 8192) // 4


class PostSelectFilter:
    """Exact post-selection: chunk the Vis IDs through RAM.

    Each chunk requires a full pass over the materialized SJoin output,
    which is why Post-Select degrades so much faster than Bloom-based
    Post-Filter as the Visible selectivity drops.
    """

    def __init__(self, ctx: ExecContext, ids: List[int]):
        self.ctx = ctx
        self.ids = ids
        self.chunk_size = post_select_chunk_ids(ctx.ram.free_bytes)

    @property
    def n_passes(self) -> int:
        if not self.ids:
            return 1
        return -(-len(self.ids) // self.chunk_size)

    def filter_columns(self, columns: Dict[str, U32View], count: int,
                       table: str) -> Tuple[Dict[str, U32View], int]:
        """Rewrite the stored columns keeping rows whose ``table`` id is
        (exactly) in the Vis ID list."""
        ctx = self.ctx
        tables = list(columns)
        batch = not scalar_exec()
        for pass_no in range(self.n_passes):
            chunk = set(
                self.ids[pass_no * self.chunk_size:
                         (pass_no + 1) * self.chunk_size]
            )
            with ctx.ram.reserve(len(chunk) * 4, "post-select chunk"):
                keep: List[bool] = []
                with ctx.label(PROJECT_LABEL):
                    if batch:
                        contains = chunk.__contains__
                        for page in columns[table].iter_pages(ctx.ram):
                            keep.extend(map(contains, page))
                    else:
                        for value in columns[table].iterate(ctx.ram):
                            keep.append(value in chunk)
                if pass_no == 0:
                    survivors = keep
                else:
                    survivors = [a or b for a, b in zip(survivors, keep)]
        builders = [
            U32FileBuilder(ctx.store, ctx.ram, label="post-select out")
            for _ in tables
        ]
        with ctx.label(PROJECT_LABEL):
            if batch:
                for t, b in zip(tables, builders):
                    pos = 0
                    for page in columns[t].iter_pages(ctx.ram):
                        b.append_words(list(compress(
                            page, survivors[pos:pos + len(page)])))
                        pos += len(page)
            else:
                for t, b in zip(tables, builders):
                    for i, value in enumerate(columns[t].iterate(ctx.ram)):
                        if survivors[i]:
                            b.add(value)
            views = {t: b.finish() for t, b in zip(tables, builders)}
        new_count = sum(survivors)
        return views, new_count
