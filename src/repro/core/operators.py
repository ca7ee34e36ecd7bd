"""Query execution primitives (paper section 3.3).

Each operator charges its flash and channel traffic to a cost label so
the executor can reproduce the paper's per-operator decomposition
(Figures 15/16): ``Vis``, ``CI``, ``Merge``, ``SJoin``, ``Bloom``,
``Store``, ``Project``.

The id-moving operators (``SJoin``, ``ProbeBF``, ``Store``,
Post-Select) are pipelines that move one decoded page of ids per step.
A pipeline chunk is **column-major**: ``cols[0]`` is the anchor-id
page, ``cols[i]`` the matching ids of the i-th joined table.  The batch
size is a host-Python matter only; what is simulated is fixed by each
operator's contract, stated on the operator: which pages it reads
(each once, when the id stream first reaches it), how many page
buffers it holds and for how long, which pages it writes, and the
label all of that is charged under.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.catalog import SecureCatalog
from repro.errors import StorageError
from repro.hardware.token import SecureToken
from repro.index.bloom import BloomFilter
from repro.predicate import Predicate
from repro.sql.binder import BoundColumn, BoundQuery, BoundSelection
from repro.storage.runs import IdRun, U32FileBuilder, U32View, word_view
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
        self._vis_results: Dict[str, VisResult] = {}

    @property
    def ram(self):
        return self.token.ram

    @property
    def store(self):
        return self.token.store

    def label(self, name: str):
        return self.token.label(name)

    def seed_vis(self, table: str, result: VisResult) -> None:
        """Adopt ``table``'s already-downloaded answer (the batched
        path prefetches whole batches of requests in one round trip
        before running each query)."""
        self._vis_results[table] = result

    def fetch_vis(self) -> None:
        """Ask Untrusted the statement's request set: one
        :func:`vis_request` per table of :func:`vis_tables`, each
        exactly once, seeded answers excepted."""
        for table in vis_tables(self.bound):
            if table not in self._vis_results:
                with self.label(VIS_LABEL):
                    self._vis_results[table] = self.vis.vis(
                        vis_request(self.bound, table))


# ---------------------------------------------------------------------------
# Vis: the statement's request set
# ---------------------------------------------------------------------------

def source_of(col: BoundColumn) -> Tuple:
    """Classify a projected column: ('id', t) | ('vis'|'hid', t, name)."""
    if col.column.is_id:
        return ("id", col.table)
    if col.column.is_foreign_key:
        return ("id", col.column.references)
    if col.column.hidden:
        return ("hid", col.table, col.column.name)
    return ("vis", col.table, col.column.name)


def projected_values(bound: BoundQuery) -> Dict[str, Dict[str, List[str]]]:
    """Per table: which vis/hid attribute names are projected."""
    out: Dict[str, Dict[str, List[str]]] = {}
    for col in bound.projections:
        src = source_of(col)
        if src[0] == "id":
            continue
        kind, table, name = src
        entry = out.setdefault(table, {"vis": [], "hid": []})
        if name not in entry[kind]:
            entry[kind].append(name)
    return out


def vis_tables(bound: BoundQuery) -> List[str]:
    """Every table Secure asks Untrusted about: those with a visible
    selection, then those with a projected visible column."""
    tables: List[str] = []
    for sel in bound.visible_selections():
        if sel.table not in tables:
            tables.append(sel.table)
    for table, attrs in projected_values(bound).items():
        if attrs["vis"] and table not in tables:
            tables.append(table)
    return tables


def vis_request(bound: BoundQuery, table: str) -> VisRequest:
    """``Vis(Q, T, pi)`` with pi complete: ``table``'s visible
    selections as ``(column, predicate)`` pairs plus every projected
    visible column of ``table``.  A function of the statement alone,
    so what crosses the channel never depends on the plan or on
    hidden data."""
    attrs = projected_values(bound).get(table)
    return VisRequest(
        table,
        tuple((s.column.name, s.predicate)
              for s in bound.visible_selections(table)),
        tuple(attrs["vis"]) if attrs else (),
    )


def op_vis(ctx: ExecContext, table: str) -> Optional[VisResult]:
    """``table``'s answer from the request set
    :meth:`ExecContext.fetch_vis` issued -- sorted ids, plus one
    ``(id, col...)`` row per id when the request projects values --
    or ``None`` when the statement asks nothing about ``table``."""
    return ctx._vis_results.get(table)


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

def op_sjoin(ctx: ExecContext, anchor: str,
             anchor_chunks: Iterator[List[int]],
             tables: Sequence[str]) -> Iterator[Chunk]:
    """Key semi-join of sorted anchor ids against ``SKT(anchor)``.

    Yields column-major pages of ``(anchor, *tables)`` ids.  The SKT is
    walked in id order: each page holding a qualifying row is read
    once, when the sorted anchor stream first touches it, and pages
    holding none are skipped -- which is why Pre-Filter pays less I/O
    here at high selectivity and why the benefit vanishes once most
    pages hold a match (sV > ~0.1).  One RAM buffer (the current SKT
    page) is held while the stream is open; reads are charged to
    ``SJoin``.

    A chunk's pages are fetched as one run (one read call, one label
    push, one charge: every page of the run is consumed before the
    chunk is yielded, which is what makes a run read legal -- see
    :meth:`~repro.flash.store.FlashFile.read_pages`); the page the
    previous chunk ended on is still held and is not read again.  An
    SKT row is a fixed number of 4-byte ids, so the run is a strided
    u32 array and each table's column is one C-level gather of the
    qualifying rows.  The raw pages are host memory, unaccounted as
    page-cache entries are.
    """
    skt = ctx.catalog.skt(anchor)
    heap = skt.heap
    rows_per_page = heap.rows_per_page
    words_per_row = len(skt.columns)
    positions = skt.column_positions(tables)
    buf = ctx.ram.alloc_buffer("sjoin page")
    try:
        held_page, held = None, b""
        for chunk in anchor_chunks:
            if not chunk:
                continue
            if chunk[-1] >= heap.n_rows:
                raise StorageError(
                    f"anchor id {chunk[-1]} out of range for "
                    f"SKT({anchor}) ({heap.n_rows} rows)"
                )
            pages = sorted({aid // rows_per_page for aid in chunk})
            raws = [held] if pages[0] == held_page else []
            if len(raws) < len(pages):
                with ctx.label(SJOIN_LABEL):
                    raws += heap.read_pages_raw(pages[len(raws):])
            held_page, held = pages[-1], raws[-1]
            # row k of the run's i-th page is row i * rows_per_page + k
            # of the joined payloads (only a heap's last page is short)
            shift = {page: (i - page) * rows_per_page
                     for i, page in enumerate(pages)}
            rows = [aid + shift[aid // rows_per_page] for aid in chunk]
            # (an itemgetter of one index returns the item, not a tuple)
            pick = (itemgetter(*rows) if len(rows) > 1
                    else lambda column: (column[rows[0]],))
            words = word_view(b"".join(raws))
            yield [chunk] + [list(pick(words[pos::words_per_row]))
                             for pos in positions]
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


def op_probe_bf(bf: BloomFilter, chunks: Iterator[Chunk],
                position: int) -> Iterator[Chunk]:
    """``ProbeBF``: keep the rows whose ``position``-th id may be in
    ``bf`` -- one probe per id, the bits of ``id in bf``.  No I/O."""
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

def op_store_columns(ctx: ExecContext, chunks: Iterator[Chunk],
                     tables: Sequence[str]
                     ) -> Tuple[Dict[str, U32View], int]:
    """Materialize a chunk stream as one U32 column file per table.

    The QEPSJ result is vertically partitioned "to avoid repetitive
    reads of unnecessary columns" during projection; all columns are in
    the same (anchor-id) order and have the same cardinality.  Each
    column holds one page buffer for the whole pass and writes
    ``ceil(count / ids per page)`` pages, each when it fills (the tail
    at the end), charged to ``Store``.
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
        (exactly) in the Vis ID list.

        Scans ``table``'s stored column once per pass, then every
        column once more to write the survivors out; one page buffer
        per open scan or output column, charged to ``Project``.
        """
        ctx = self.ctx
        tables = list(columns)
        for pass_no in range(self.n_passes):
            chunk = set(
                self.ids[pass_no * self.chunk_size:
                         (pass_no + 1) * self.chunk_size]
            )
            with ctx.ram.reserve(len(chunk) * 4, "post-select chunk"):
                keep: List[bool] = []
                with ctx.label(PROJECT_LABEL):
                    for page in columns[table].iter_pages(ctx.ram):
                        keep.extend(map(chunk.__contains__, page))
                if pass_no == 0:
                    survivors = keep
                else:
                    survivors = [a or b for a, b in zip(survivors, keep)]
        builders = [
            U32FileBuilder(ctx.store, ctx.ram, label="post-select out")
            for _ in tables
        ]
        with ctx.label(PROJECT_LABEL):
            for t, b in zip(tables, builders):
                pos = 0
                for page in columns[t].iter_pages(ctx.ram):
                    b.append_words(list(compress(
                        page, survivors[pos:pos + len(page)])))
                    pos += len(page)
            views = {t: b.finish() for t, b in zip(tables, builders)}
        new_count = sum(survivors)
        return views, new_count
