"""Executor for the selection-join phase (QEPSJ) and result assembly.

The global plan (paper Figure 6) is evaluated in two phases:

* **QEPSJ** (here): first the statement's Vis request set (one request
  per visible table, serving both phases), then hidden selections via
  climbing indexes, visible selections via the per-table strategy
  (Pre/Post/Post-Select/NoFilter, optionally Cross-filtered), a
  RAM-bounded ``Merge`` producing sorted anchor IDs, and -- when any
  other table's IDs are needed -- a pipelined ``SJoin -> ProbeBF ->
  Store`` pass over ``SKT(anchor)``.
* **QEPP** (:mod:`repro.core.project`): the projection algorithm.

The executor owns the cost-label discipline that the decomposition
figures (15/16) rely on.  The pipeline moves ids in page-sized chunks,
but nothing simulated depends on the chunking: Merge loads a run's page
only when the id stream crosses it (one buffer per open run, charged to
``Merge`` whoever pulls), SJoin reads each touched SKT page once (one
buffer, ``SJoin``), Store writes each column page as it fills (one
buffer per column, ``Store``).  Every operator exists once; what runs
depends on the statement, the plan and the data only.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from math import fsum
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Tuple)

from repro.core.merge import MergeOperator
from repro.core.operators import (
    ExecContext,
    PostSelectFilter,
    op_build_bf,
    op_ci,
    op_ci_ids,
    op_probe_bf,
    op_sjoin,
    op_store_columns,
    op_vis,
)
from repro.core.plan import (
    QepSjResult,
    QueryPlan,
    VisPlan,
    VisStrategy,
)
from repro.hardware.ram import QueryWindow
from repro.sql.binder import BoundQuery
from repro.storage.runs import IDS_PER_PAGE, IdRun, difference_sorted


#: a fleet's coordinator merge (priced by ``shard.gather.merge_cost_s``)
GATHER_LABEL = "Gather"


@dataclass
class QueryStats:
    """Simulated cost report for one executed query."""

    total_s: float
    by_operator: Dict[str, float]
    counters: Dict[str, int]
    bytes_to_secure: int
    bytes_to_untrusted: int
    ram_peak: int
    result_rows: int

    def operator_s(self, label: str) -> float:
        return self.by_operator.get(label, 0.0)

    @classmethod
    def parallel(cls, parts: Iterable["QueryStats"],
                 merge_s: float = 0.0,
                 result_rows: Optional[int] = None) -> "QueryStats":
        """Combine per-shard reports that ran on *independent* tokens.

        The shards of a fleet execute concurrently on disjoint
        hardware, so the simulated makespan is the *slowest* shard
        plus the coordinator's ``merge_s``, while bytes, rows and
        counters sum (they measure work, not time).  ``by_operator``
        sums too (``fsum``: the order of the shards cannot matter) --
        it reports where fleet-wide work went, and therefore may
        exceed ``total_s``.  ``ram_peak`` is the largest single-token
        peak: shard RAM budgets are not fungible.
        """
        parts = list(parts)
        seconds: Dict[str, List[float]] = {}
        counters: Dict[str, int] = {}
        for part in parts:
            for label, s in part.by_operator.items():
                seconds.setdefault(label, []).append(s)
            for key, value in part.counters.items():
                counters[key] = counters.get(key, 0) + value
        if merge_s:
            seconds.setdefault(GATHER_LABEL, []).append(merge_s)
        return cls(
            total_s=merge_s + max((p.total_s for p in parts), default=0.0),
            by_operator={label: fsum(s) for label, s in seconds.items()},
            counters=counters,
            bytes_to_secure=sum(p.bytes_to_secure for p in parts),
            bytes_to_untrusted=sum(p.bytes_to_untrusted for p in parts),
            ram_peak=max((p.ram_peak for p in parts), default=0),
            result_rows=sum(p.result_rows for p in parts)
            if result_rows is None else result_rows,
        )


class CostWindow:
    """Cost capture of one statement (or batch) on one token.

    The one place a :class:`QueryStats` is produced: opening the window
    snapshots the token's cost ledger and channel byte counters,
    :meth:`stats` reports what was charged since: the integer
    difference of two ledger snapshots, from which time is derived.
    The ledger/channel deltas span everything between the two;
    secure-RAM attribution windows open and close per *phase*
    (:meth:`ram_window`) and the largest phase peak is kept -- phases
    drain their allocations before returning, so the max over phases
    is the true peak.
    """

    def __init__(self, token):
        self.token = token
        self._before = token.ledger.snapshot()
        ch = token.channel.stats
        self._in0 = ch.bytes_to_secure
        self._out0 = ch.bytes_to_untrusted
        self._peak = 0

    @contextmanager
    def ram_window(self) -> Iterator[QueryWindow]:
        """One phase's per-query RAM attribution window: the reported
        peak is the peak of *this* statement's allocations, whatever
        the token held when it opened."""
        with self.token.ram.query_window() as window:
            try:
                yield window
            finally:
                self._peak = max(self._peak, window.peak)

    def stats(self, result_rows: int = 0) -> QueryStats:
        """Everything charged to the token since the window opened."""
        spent = self.token.ledger.snapshot() - self._before
        by_op = {label: s for label, s in spent.by_label_s().items() if s}
        ch = self.token.channel.stats
        return QueryStats(
            total_s=fsum(by_op.values()),
            by_operator=by_op,
            counters=dict(spent.counters),
            bytes_to_secure=ch.bytes_to_secure - self._in0,
            bytes_to_untrusted=ch.bytes_to_untrusted - self._out0,
            ram_peak=self._peak,
            result_rows=result_rows,
        )


@dataclass
class QueryResult:
    """One executed SELECT: column names, rows, costs and the plan."""

    columns: List[str]
    rows: List[Tuple]
    stats: QueryStats
    plan: QueryPlan


def tables_beyond_anchor(bound: BoundQuery,
                         decided: Mapping[str, object]) -> List[str]:
    """Non-anchor tables whose IDs the QEPSJ result must carry.

    Every projected table (a projected foreign key ``P.fk -> C`` is
    exactly ``C``'s id in the joined row, so it is served from ``C``'s
    column), then every table in ``decided`` -- table -> anything with
    a ``.strategy`` -- whose visible selection is applied after the
    SJoin.
    """
    needed: List[str] = []
    for col in bound.projections:
        source = (col.column.references if col.column.is_foreign_key
                  else col.table)
        if source != bound.anchor and source not in needed:
            needed.append(source)
    for table, choice in decided.items():
        if table != bound.anchor and table not in needed \
                and choice.strategy is not VisStrategy.PRE:
            needed.append(table)
    return needed


def post_bloom_budget(avail_bytes: int, n_extra: int, page: int) -> int:
    """Bytes a Post-Filter Bloom may take.  It must leave RAM for the
    pipelined Merge -> SJoin -> Store pass (4 buffers plus one per
    carried table); when it cannot get m=8n within that envelope its
    accuracy degrades smoothly (paper section 3.4)."""
    return max(1024, avail_bytes - (4 + n_extra) * page)


class QepSjExecutor:
    """Runs the selection-join phase of one plan."""

    def __init__(self, ctx: ExecContext):
        self.ctx = ctx
        self.merge = MergeOperator(ctx.store, ctx.ram)

    # ------------------------------------------------------------------
    def _cross_runs_at(self, table: str) -> List[List[IdRun]]:
        """Hidden selections usable for Cross filtering at ``table``:
        those on the table itself or on its descendants (their climbing
        indexes carry sublists for ``table``)."""
        ctx = self.ctx
        out: List[List[IdRun]] = []
        for sel in ctx.bound.hidden_selections():
            if ctx.catalog.schema.is_ancestor(table, sel.table):
                out.append(op_ci(ctx, sel, table))
        return out

    def _vis_ids_after_cross(self, table: str, vp: VisPlan) -> List[int]:
        """The Vis ID list, intersected at ``table`` level when Cross."""
        vis_ids = op_vis(self.ctx, table).ids
        cross_groups = self._cross_runs_at(table) if vp.cross else []
        if not cross_groups:
            return vis_ids
        groups = [[IdRun.memory(vis_ids)]] + cross_groups
        return list(chain.from_iterable(
            self.merge.stream(groups, reserve_buffers=2)))

    # ------------------------------------------------------------------
    def execute(self, plan: QueryPlan) -> QepSjResult:
        ctx = self.ctx
        bound = plan.bound
        anchor = bound.anchor

        groups: List[List[IdRun]] = []
        post_blooms: List[Tuple[str, object]] = []
        post_selects: List[Tuple[str, List[int]]] = []
        approx: set[str] = set()
        extra_tables = tables_beyond_anchor(bound, plan.vis_plans)
        bloom_budget = post_bloom_budget(
            ctx.ram.free_bytes, len(extra_tables), ctx.token.page_size)

        # what is asked of Untrusted depends on the statement alone;
        # the strategies differ only in what Secure does with it
        ctx.fetch_vis()
        for sel in bound.hidden_selections():
            groups.append(op_ci(ctx, sel, anchor))

        for table, vp in plan.vis_plans.items():
            ids = self._vis_ids_after_cross(table, vp)
            if table == anchor:
                # anchor Vis IDs are already anchor IDs: free Pre-Filter
                groups.append([IdRun.memory(ids)])
                continue
            if vp.strategy is VisStrategy.PRE:
                groups.append(op_ci_ids(ctx, table, ids, anchor))
            elif vp.strategy is VisStrategy.POST:
                bf = op_build_bf(ctx, ids, len(ids),
                                 max_bytes=bloom_budget)
                post_blooms.append((table, bf))
                approx.add(table)
            elif vp.strategy is VisStrategy.POST_SELECT:
                post_selects.append((table, ids))
            elif vp.strategy is VisStrategy.NOFILTER:
                approx.add(table)

        order = [anchor] + extra_tables
        position = {t: i for i, t in enumerate(order)}

        anchor_chunks = self._anchor_chunks(groups)
        if extra_tables:
            chunks = op_sjoin(ctx, anchor, anchor_chunks, extra_tables)
            for table, bf in post_blooms:
                chunks = op_probe_bf(bf, chunks, position[table])
        else:
            # nothing to join: the anchor id list alone is stored (no
            # Post-filtered table either -- each would be an extra one)
            chunks = ([chunk] for chunk in anchor_chunks)
        columns, count = op_store_columns(ctx, chunks, order)

        for _, bf in post_blooms:
            bf.free()
        for table, ids in post_selects:
            columns, count = PostSelectFilter(ctx, ids).filter_columns(
                columns, count, table
            )
        return QepSjResult(anchor=anchor, count=count,
                           anchor_ids=columns[anchor], columns=columns,
                           approx_tables=approx)

    # ------------------------------------------------------------------
    def _anchor_chunks(self, groups: List[List[IdRun]]
                       ) -> Iterator[List[int]]:
        """Qualifying anchor ids, sorted, in roughly page-sized chunks."""
        anchor = self.ctx.bound.anchor
        if groups:
            # reserve: 1 SJoin page + output builders + slack
            chunks: Iterator[List[int]] = self.merge.stream(
                groups, reserve_buffers=4)
        else:
            # no restricting predicate at all: every anchor tuple
            # qualifies
            n = self.ctx.catalog.n_rows(anchor)
            chunks = (list(range(i, min(i + IDS_PER_PAGE, n)))
                      for i in range(0, n, IDS_PER_PAGE))
        # tombstoned rows stay in every file (deletes are append-only)
        # and Untrusted keeps serving them; the token drops them here.
        # Deletes RESTRICT, so a live anchor never reaches a dead
        # descendant -- filtering the anchor ids suffices.
        dead = self.ctx.catalog.tombstones.get(anchor)
        if dead:
            # chunks are sorted and deduplicated, so the sorted set
            # difference is the per-id filter
            return (difference_sorted(chunk, dead) for chunk in chunks)
        return chunks
