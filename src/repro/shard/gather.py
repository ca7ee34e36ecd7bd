"""Gather-side merge operators for scattered queries.

Every scattered fragment returns its rows in *shard-local anchor
order* carrying the anchor-id projection column; after translating
local root ids to global ids (the router's maps are monotone, so
translation preserves order) the streams here are plain sorted runs
and merging them is the same k-way problem the execution core already
solves for id runs (:func:`repro.storage.runs.union_sorted_many`).

Three merge shapes cover every query:

* :func:`merge_by_anchor` -- the default: one streaming heap merge by
  global anchor id reconstructs exactly the row order a single token
  would have produced, because a single token emits rows in anchor
  order too.  Aggregation and DISTINCT run *after* this merge, over
  the reconstructed global order, which makes even order-sensitive
  float SUM/AVG accumulation bit-identical to the single-token run.
* :func:`merge_ordered` -- ORDER BY pushdown: each shard pre-sorted
  (and pre-truncated to ``offset + limit``) its own rows; the gather
  heap-merges by (encoded sort key, global anchor id) and applies the
  OFFSET/LIMIT window once, globally.  The per-shard truncation is
  lossless: the global order is total, so each shard's contribution
  to the window is a prefix of that shard's local order.
* :func:`finish_order` -- ordering of *derived* rows (aggregate
  groups, deduplicated DISTINCT rows) that no longer live on any
  token: a pure stable sort with the same key encoding and the same
  position tie-break the token's sort operators use.

The merge is coordinator work and is priced, not free:
:func:`merge_cost_s`.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.executor import GATHER_LABEL
from repro.core.plan import OrderPlan, SortMethod
from repro.core.sort import SortKeyCodec
from repro.flash.constants import PAGE_SIZE
from repro.flash.stats import COMM, LedgerSnapshot

Row = Tuple
Rows = List[Row]


def translate_rows(rows: Sequence[Row], positions: Sequence[int],
                   id_map: Sequence[int]) -> Rows:
    """Map shard-local root ids at ``positions`` to global ids."""
    if not positions:
        return list(rows)
    out: Rows = []
    for row in rows:
        cells = list(row)
        for pos in positions:
            cells[pos] = id_map[cells[pos]]
        out.append(tuple(cells))
    return out


def merge_by_anchor(streams: Sequence[Rows], aid_pos: int) -> Rows:
    """K-way merge of anchor-ordered row streams into global order."""
    non_empty = [s for s in streams if s]
    if len(non_empty) == 1:
        return list(non_empty[0])
    return list(heapq.merge(*non_empty, key=lambda row: row[aid_pos]))


def _order_key(order: OrderPlan, aid_pos: int) -> Callable[[Row], Tuple]:
    """Sort key (key words, global anchor id) for pre-sorted streams.

    Drops the codec's per-row position word (positions are shard-local
    and meaningless globally) and tie-breaks by global anchor id --
    which equals the single token's position tie-break, because its
    pre-sort row list is in anchor order.
    """
    codec = SortKeyCodec(order.keys)
    positions = order.key_positions

    def key(row: Row) -> Tuple:
        encoded = codec.encode([row[p] for p in positions], 0)
        return encoded[:-1] + (row[aid_pos],)

    return key


def merge_ordered(streams: Sequence[Rows], order: OrderPlan,
                  aid_pos: int) -> Rows:
    """Merge per-shard pre-sorted streams and apply the global window."""
    key = _order_key(order, aid_pos)
    merged = heapq.merge(*[s for s in streams if s], key=key)
    stop = None if order.limit is None else order.offset + order.limit
    return list(islice(merged, order.offset, stop))


def window(rows: Rows, order: OrderPlan) -> Rows:
    """The OFFSET/LIMIT slice of already-ordered rows."""
    stop = None if order.limit is None else order.offset + order.limit
    return rows[order.offset:stop]


def finish_order(rows: Rows, order: Optional[OrderPlan]) -> Rows:
    """Order derived (aggregate/DISTINCT) rows exactly like one token.

    The token's sort operators order records by (encoded keys,
    position); reproducing that here -- a stable sort keyed by the
    same codec -- yields bit-identical output for every method a
    single token could have chosen, since all of them realize the
    same total order.
    """
    if order is None:
        return rows
    if order.method is SortMethod.TRUNCATE or not order.keys:
        return window(rows, order)
    codec = SortKeyCodec(order.keys)
    positions = order.key_positions
    decorated = sorted(
        (codec.encode([row[p] for p in positions], i), row)
        for i, row in enumerate(rows)
    )
    return window([row for _, row in decorated], order)


def merge_cost_s(n_rows: int, n_cols: int, n_shards: int,
                 throughput_mbps: float) -> float:
    """Simulated coordinator cost (seconds) of gathering ``n_rows``
    result rows of ``n_cols`` 4-byte columns.

    The scatter-gather executor funnels every shard's already-computed
    result rows through the coordinator once: the row bytes plus one
    page-sized turnaround per shard stream for the merge cursors, as
    one ``comm`` ledger cell at the channel throughput -- priced by
    the ledger's own derivation, like every
    :class:`~repro.hardware.channel.UsbChannel` transfer.  ``EXPLAIN``
    prices its gather estimate with the same function, so per-shard
    candidate costs and the merge premium show side by side.
    """
    if n_rows <= 0 or n_shards <= 0:
        return 0.0
    nbytes = n_rows * 4 * max(1, n_cols) + n_shards * PAGE_SIZE
    cells = {(GATHER_LABEL, COMM, throughput_mbps): (n_shards, nbytes)}
    return LedgerSnapshot(cells, {}).total_time_s()
