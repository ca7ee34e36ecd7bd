"""The projection phase (QEPP): the paper's Project algorithm (Fig. 5).

Distinctive constraints (section 4): Untrusted sends many attribute
values that will not survive the hidden predicates; Bloom-based
post-filtering leaves false positives in the QEPSJ result; and RAM is
tiny.  The Project algorithm therefore:

1. works table by table over the vertically partitioned QEPSJ result
   (Fig. 5 line 1, the SJoin to every projected table, is already done
   by QEPSJ: ``tables_beyond_anchor`` makes its result carry an id
   column per projected non-anchor table),
2. Bloom-filters the irrelevant values sent by Untrusted (``sigma_VH``),
3. builds ``<pos, vlist, hlist>`` tuples per table with the multi-pass
   ``MJoin`` bounded by RAM,
4. merges everything back position-ordered, which also eliminates all
   remaining false positives exactly.

Two comparison variants from Figures 12/13 are implemented alongside:
``Project-NoBF`` (step 2 disabled) and ``Brute-Force`` (random flash
accesses per QEPSJ result row).
"""

from __future__ import annotations

import heapq
from itertools import compress
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.operators import (PROJECT_LABEL, ExecContext, op_vis,
                                  projected_values, source_of)
from repro.core.plan import ProjectionMode, QepSjResult
from repro.index.bloom import BloomFilter
from repro.storage.codec import IntType, RowCodec
from repro.storage.heap import HeapFile
from repro.untrusted.server import VisResult


class _SortedCursor:
    """Peekable cursor over a sorted (pos, values...) row stream."""

    __slots__ = ("_it", "head")

    def __init__(self, it: Iterator[Tuple]):
        self._it = it
        self.head: Optional[Tuple] = None
        self.advance()

    def advance(self) -> None:
        self.head = next(self._it, None)


class _HiddenFetcher:
    """Page-skipping random access to a hidden image, in id order."""

    def __init__(self, ctx: ExecContext, table: str, columns: List[str]):
        self.image = ctx.catalog.image(table)
        self.positions = (self.image.hidden_positions(columns)
                          if columns else [])
        self.columns = columns
        self._page = -1
        self._rows: Dict[int, Tuple] = {}

    def fetch(self, rid: int) -> Tuple:
        if not self.columns:
            return ()
        heap = self.image.heap
        page = heap.page_of_row(rid)
        if page != self._page:
            self._rows = dict(heap.read_rows_on_page(page, self.positions))
            self._page = page
        return self._rows[rid]


def mjoin_chunk_rows(avail_bytes: int, page: int, entry_bytes: int) -> int:
    """``<pos, values>`` candidates one MJoin pass holds in RAM beside
    its column cursor and output page."""
    return max(1, (avail_bytes - 2 * page) // entry_bytes)


class ProjectionExecutor:
    """Executes QEPP over one QEPSJ result."""

    def __init__(self, ctx: ExecContext):
        self.ctx = ctx
        self.bound = ctx.bound
        self.anchor = ctx.bound.anchor

    # ------------------------------------------------------------------
    def execute(self, sj: QepSjResult, mode: ProjectionMode
                ) -> Tuple[List[str], List[Tuple]]:
        names = [str(c) for c in self.bound.projections]
        if sj.count == 0:
            return names, []
        if mode is ProjectionMode.BRUTE_FORCE:
            return names, self._brute_force(sj)
        per_table = projected_values(self.bound)
        mjoined = set(per_table) | set(sj.approx_tables)
        mjoined.discard(self.anchor)
        pass_heaps: Dict[str, List[HeapFile]] = {}
        for table in sorted(mjoined):
            attrs = per_table.get(table, {"vis": [], "hid": []})
            pass_heaps[table] = self._mjoin_table(
                sj, table, attrs["vis"], attrs["hid"], mode)
        rows = self._final_join(sj, per_table, pass_heaps)
        for heaps in pass_heaps.values():
            for h in heaps:
                h.free()
        return names, rows

    # ------------------------------------------------------------------
    # MJoin
    # ------------------------------------------------------------------
    def _sigma_vh(self, sj: QepSjResult, table: str, vis: VisResult,
                  use_bloom: bool) -> List[Tuple]:
        """Fig. 5 lines 3-4: Bloom-filter the irrelevant Vis rows."""
        ctx = self.ctx
        if not use_bloom:
            return vis.rows
        with ctx.label(PROJECT_LABEL):
            reserve = 4 * ctx.token.page_size
            bf = BloomFilter(ctx.ram, sj.count,
                             max_bytes=max(1024,
                                           ctx.ram.free_bytes - reserve),
                             label="project bloom")
            # one add / one probe batch per page: the bits of one
            # ``bf.add(id)`` / ``id in bf`` per id
            for page in sj.columns[table].iter_pages(ctx.ram,
                                                     "qepsj column"):
                bf.add_many(page)
            filtered = list(compress(vis.rows, bf.contains_many(vis.ids)))
            bf.free()
        return filtered

    def _mjoin_table(self, sj: QepSjResult, table: str,
                     vis_cols: List[str], hid_cols: List[str],
                     mode: ProjectionMode) -> List[HeapFile]:
        """Fig. 5 lines 5-6: build sorted ``<pos, values...>`` runs."""
        ctx = self.ctx
        schema_table = ctx.catalog.schema.table(table)
        vis_types = [schema_table.column(c).type for c in vis_cols]
        hid_types = [schema_table.column(c).type for c in hid_cols]

        fetcher = _HiddenFetcher(ctx, table, hid_cols)
        vis = op_vis(ctx, table)
        if vis is not None:
            rows = self._sigma_vh(sj, table, vis,
                                  use_bloom=mode is ProjectionMode.PROJECT)
            with ctx.label(PROJECT_LABEL):
                candidates = [
                    (row[0], *row[1:], *fetcher.fetch(row[0]))
                    for row in rows
                ]
        else:
            # hidden-only projection: sequential scan of the image
            with ctx.label(PROJECT_LABEL):
                img = ctx.catalog.image(table)
                positions = img.hidden_positions(hid_cols)
                candidates = [
                    (rid, *row)
                    for rid, row in enumerate(img.heap.scan(positions))
                ]

        entry_bytes = 4 + sum(t.width for t in vis_types + hid_types)
        codec = RowCodec([IntType(4)] + vis_types + hid_types)
        chunk_capacity = mjoin_chunk_rows(
            ctx.ram.free_bytes, ctx.token.page_size, entry_bytes)
        heaps: List[HeapFile] = []
        column = sj.columns[table]
        pass_no = 0
        for start in range(0, max(len(candidates), 1), chunk_capacity):
            chunk_rows = candidates[start:start + chunk_capacity]
            chunk = {row[0]: row[1:] for row in chunk_rows}
            with ctx.ram.reserve(len(chunk_rows) * entry_bytes,
                                 "mjoin chunk"):
                with ctx.label(PROJECT_LABEL):
                    # page-at-a-time pass over the stored QEPSJ column
                    out_rows: List[Tuple] = []
                    pos = 0
                    for page in column.iter_pages(ctx.ram,
                                                  "qepsj column"):
                        out_rows.extend(
                            (pos + i, *chunk[rid])
                            for i, rid in enumerate(page)
                            if rid in chunk
                        )
                        pos += len(page)
                    heaps.append(HeapFile.build(
                        ctx.store, f"__mjoin_{table}_{id(self)}_{pass_no}",
                        codec, out_rows, ctx.token.page_size,
                    ))
            pass_no += 1
        return heaps

    # ------------------------------------------------------------------
    # final position-ordered join (Fig. 5 line 7)
    # ------------------------------------------------------------------
    def _final_join(self, sj: QepSjResult,
                    per_table: Dict[str, Dict[str, List[str]]],
                    pass_heaps: Dict[str, List[HeapFile]]
                    ) -> List[Tuple]:
        ctx = self.ctx
        anchor = self.anchor
        anchor_attrs = per_table.get(anchor, {"vis": [], "hid": []})

        # anchor-side streams (all ordered by anchor id == position order)
        anchor_vis_map: Dict[int, Tuple] = {}
        if anchor_attrs["vis"]:
            vis = op_vis(ctx, anchor)
            anchor_vis_map = {row[0]: row[1:] for row in vis.rows}
        anchor_fetcher = _HiddenFetcher(ctx, anchor, anchor_attrs["hid"])

        cursors: Dict[str, _SortedCursor] = {}
        with ctx.label(PROJECT_LABEL):
            for table, heaps in pass_heaps.items():
                scans = [h.scan() for h in heaps]
                cursors[table] = _SortedCursor(heapq.merge(*scans))

        # id columns consumed position-by-position
        id_iters: Dict[str, Iterator[int]] = {}
        for col in self.bound.projections:
            src = source_of(col)
            if src[0] == "id" and src[1] != anchor:
                t = src[1]
                if t not in id_iters:
                    id_iters[t] = sj.columns[t].iterate(ctx.ram, "id column")

        # where each projected column sits in a row's sources --
        # [ids, anchor vis, anchor hid, *one value tuple per cursor] --
        # compiled once: assembling a row is a plain tuple build
        id_tables = [anchor, *id_iters]
        value_tables = list(cursors)
        plan: List[Tuple[int, int]] = []
        for col in self.bound.projections:
            kind, table, *name = source_of(col)
            if kind == "id":
                plan.append((0, id_tables.index(table)))
            elif table == anchor:
                plan.append((1 if kind == "vis" else 2,
                             anchor_attrs[kind].index(name[0])))
            else:
                attrs = per_table[table]
                plan.append((3 + value_tables.index(table),
                             (attrs["vis"] + attrs["hid"]).index(name[0])))

        rows: List[Tuple] = []
        anchor_iter = sj.anchor_ids.iterate(ctx.ram, "anchor ids")
        with ctx.label(PROJECT_LABEL):
            for pos, aid in enumerate(anchor_iter):
                sources: List[Tuple] = [(), (), ()]
                alive = True
                for cursor in cursors.values():
                    head = cursor.head
                    if head is not None and head[0] == pos:
                        sources.append(head[1:])
                        cursor.advance()
                    else:
                        alive = False
                sources[0] = (aid, *[next(it) for it in id_iters.values()])
                if anchor_attrs["vis"]:
                    if aid in anchor_vis_map:
                        sources[1] = anchor_vis_map[aid]
                    else:
                        alive = False
                if not alive:
                    continue
                sources[2] = anchor_fetcher.fetch(aid)
                rows.append(tuple([sources[s][i] for s, i in plan]))
        return rows

    # ------------------------------------------------------------------
    # Brute-Force (Figures 12/13 baseline)
    # ------------------------------------------------------------------
    def _brute_force(self, sj: QepSjResult) -> List[Tuple]:
        """Random accesses per QEPSJ row, after materializing Vis data.

        Visible values are first written to flash (full-width rows at id
        positions) and then, like the hidden values, fetched by random
        point reads for every QEPSJ result row.
        """
        ctx = self.ctx
        per_table = projected_values(self.bound)
        needed = set(per_table) | set(sj.approx_tables)

        vis_heaps: Dict[str, HeapFile] = {}
        vis_flags: Dict[str, List[bool]] = {}
        hid_positions: Dict[str, List[int]] = {}
        with ctx.label(PROJECT_LABEL):
            for table in sorted(needed):
                attrs = per_table.get(table, {"vis": [], "hid": []})
                hid_positions[table] = (
                    ctx.catalog.image(table).hidden_positions(attrs["hid"])
                    if attrs["hid"] else []
                )
                vis = op_vis(ctx, table)
                if vis is None:
                    continue
                schema_table = ctx.catalog.schema.table(table)
                types = [schema_table.column(c).type for c in attrs["vis"]]
                n = ctx.catalog.n_rows(table)
                flags = [False] * n
                values: Dict[int, Tuple] = {}
                for row in vis.rows:
                    flags[row[0]] = True
                    values[row[0]] = row[1:]
                defaults = tuple(
                    0 if not hasattr(t, "size") or isinstance(t, IntType)
                    else ("" if hasattr(t, "size") else 0.0)
                    for t in types
                )
                codec = RowCodec(types) if types else None
                if codec:
                    vis_heaps[table] = HeapFile.build(
                        ctx.store, f"__bf_vis_{table}_{id(self)}", codec,
                        (values.get(i, defaults) for i in range(n)),
                        ctx.token.page_size,
                    )
                vis_flags[table] = flags

        rows: List[Tuple] = []
        iters = {t: sj.columns[t].iterate(ctx.ram, "qepsj column")
                 for t in sj.columns}
        with ctx.label(PROJECT_LABEL):
            for pos in range(sj.count):
                current = {t: next(it) for t, it in iters.items()}
                aid = current[self.anchor]
                alive = True
                assembled: Dict[Tuple[str, str], object] = {}
                for table in sorted(needed):
                    rid = current[table] if table in current else aid
                    if table in vis_flags and not vis_flags[table][rid]:
                        alive = False
                        break
                    attrs = per_table.get(table, {"vis": [], "hid": []})
                    if table in vis_heaps and attrs["vis"]:
                        vvals = vis_heaps[table].get_row(rid)
                        for name, v in zip(attrs["vis"], vvals):
                            assembled[(table, name)] = v
                    if attrs["hid"]:
                        hvals = ctx.catalog.image(table).heap.get_columns(
                            rid, hid_positions[table]
                        )
                        for name, v in zip(attrs["hid"], hvals):
                            assembled[(table, name)] = v
                if not alive:
                    continue
                out: List = []
                for col in self.bound.projections:
                    src = source_of(col)
                    if src[0] == "id":
                        out.append(current.get(src[1], aid))
                    else:
                        out.append(assembled[(src[1], src[2])])
                rows.append(tuple(out))
        for heap in vis_heaps.values():
            heap.free()
        return rows
