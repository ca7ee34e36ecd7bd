"""Analytic cost model behind the cost-based strategy optimizer.

The paper charts the Pre/Post/Cross/NoFilter decision surface
empirically (Figures 8-13) and leaves the optimizer to future work.
For every candidate strategy assignment and ORDER BY method this
module predicts the ledger the executor would leave -- climbing-index
descents, delta-log climbs gated by the delta-key Bloom, the id runs
Merge reads, SJoin page skipping, Store, Post-Filter Bloom false
positives, Post-Select passes, projection, channel bytes -- from the
statistics catalog and the token's hardware parameters alone: free
and leak-free.

An estimate is a :class:`~repro.flash.stats.LedgerSnapshot` of
fractional counts under the executor's operator labels, at the unit
prices the token charges.  This module never does arithmetic on a
price: the ledger times an estimate and a measurement alike, so the
two compare label by label.

The rules both sides must agree on -- the Vis request set, which
tables QEPSJ carries, which values are projected, the Bloom,
Post-Select and MJoin RAM envelopes -- are functions of
:mod:`repro.core.operators`, :mod:`repro.core.executor` and
:mod:`repro.core.project`, called here with ``ram.capacity`` where
the operator passes ``ram.free_bytes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.catalog import SecureCatalog
from repro.core.executor import (QueryStats, post_bloom_budget,
                                 tables_beyond_anchor)
from repro.core.merge import MERGE_LABEL
from repro.core.operators import (BLOOM_LABEL, CI_LABEL, PROJECT_LABEL,
                                  SJOIN_LABEL, STORE_LABEL, VIS_LABEL,
                                  post_select_chunk_ids, projected_values,
                                  vis_request, vis_tables)
from repro.core.plan import ProjectionMode, SortMethod, VisStrategy
from repro.core.project import mjoin_chunk_rows
from repro.core.sort import SORT_LABEL, SortKeyCodec
from repro.errors import PlanError
from repro.flash.constants import READ_PRICE, WRITE_PRICE
from repro.flash.stats import COMM, READ, WRITE, CellKey, LedgerSnapshot
from repro.hardware.token import SecureToken
from repro.index.bloom import DEFAULT_HASHES, false_positive_rate
from repro.index.climbing import ClimbingIndex
from repro.sql.binder import BoundQuery, BoundSelection

#: the executor's operator labels, in pipeline order: every estimate
#: cell is filed under one of them
LABELS = (VIS_LABEL, CI_LABEL, MERGE_LABEL, SJOIN_LABEL, BLOOM_LABEL,
          STORE_LABEL, PROJECT_LABEL, SORT_LABEL)

#: ``(page operations, bytes moved)`` of one access pattern
IO = Tuple[float, float]
#: an estimate's ledger cells while it is being priced
Cells = Dict[CellKey, Tuple[float, float]]


def _add(cells: Cells, key: CellKey, ops: float, nbytes: float) -> None:
    """Charge ``ops`` operations moving ``nbytes`` to cell ``key``."""
    ops0, nbytes0 = cells.get(key, (0, 0))
    cells[key] = (ops0 + ops, nbytes0 + nbytes)


@dataclass(frozen=True)
class Choice:
    """One candidate decision for a single visible selection."""

    strategy: VisStrategy
    cross: bool

    def describe(self) -> str:
        names = {
            VisStrategy.PRE: "Pre-Filter",
            VisStrategy.POST: "Post-Filter",
            VisStrategy.POST_SELECT: "Post-Select",
            VisStrategy.NOFILTER: "NoFilter",
        }
        return ("Cross-" if self.cross else "") + names[self.strategy]


Assignment = Tuple[Tuple[str, Choice], ...]   # sorted by table


class _Timed:
    """An estimate's time: its ``cells`` timed by the ledger."""

    cells: LedgerSnapshot

    @property
    def total_us(self) -> float:
        return self.cells.total_time_us()

    @property
    def total_s(self) -> float:
        return self.cells.total_time_s()


@dataclass
class PlanEstimate(_Timed):
    """Predicted cost of one fully decided plan: the ledger cells its
    execution would charge (fractional counts)."""

    cells: LedgerSnapshot
    bytes_to_secure: int = 0
    bytes_to_untrusted: int = 0
    #: the fully reduced pipeline cannot hold its buffers in secure
    #: RAM -- the executor would raise; never chosen over a feasible
    #: candidate and never executed by ``EXPLAIN ANALYZE``
    infeasible: bool = False


@dataclass
class CandidateCost:
    """One candidate assignment with its estimated (and, after an
    ``EXPLAIN ANALYZE`` pass, measured) cost."""

    assignment: Assignment
    estimate: PlanEstimate
    chosen: bool = False
    measured: Optional[QueryStats] = None

    def describe(self) -> str:
        return ", ".join(f"{t}={c.describe()}" for t, c in self.assignment)


def label_lines(estimated: Dict[str, float],
                measured: Dict[str, float]) -> List[str]:
    """One ``est / measured`` line per label either side charged, in
    pipeline order, with the ratio where both are non-zero."""
    lines = []
    for label in sorted(set(estimated) | set(measured), key=lambda name: (
            LABELS.index(name) if name in LABELS else len(LABELS), name)):
        est, meas = estimated.get(label, 0.0), measured.get(label, 0.0)
        if est or meas:
            ratio = f"  ({est / meas:.2f}x)" if est and meas else ""
            lines.append(f"      {label:<8s} est {est:9.6f}s / measured "
                         f"{meas:9.6f}s{ratio}")
    return lines


@dataclass
class CostReport:
    """All candidates the optimizer weighed for one query.

    Attached to :class:`~repro.core.plan.QueryPlan` when the planner
    ran cost-based (no strategy override); rendered by ``EXPLAIN``.
    """

    candidates: List[CandidateCost]

    @property
    def chosen(self) -> Optional[CandidateCost]:
        return next((c for c in self.candidates if c.chosen), None)

    def describe(self) -> str:
        lines = ["candidates (cost-based):"]
        for cand in sorted(self.candidates,
                           key=lambda c: (c.estimate.infeasible,
                                          c.estimate.total_us)):
            est = cand.estimate
            chan = est.bytes_to_secure + est.bytes_to_untrusted
            line = (f"  {cand.describe():<42s} est {est.total_s:9.4f}s"
                    f"  chan {chan:>9d}B")
            if est.infeasible:
                line += "  infeasible (RAM)"
            elif cand.measured is not None:
                line += f"  measured {cand.measured.total_s:9.4f}s"
            if cand.chosen:
                line += "  <- chosen"
            lines.append(line)
            if cand.chosen and cand.measured is not None:
                lines += label_lines(est.cells.by_label_s(),
                                     cand.measured.by_operator)
        return "\n".join(lines)


_NO_CELLS = LedgerSnapshot({}, {})


@dataclass
class OrderEstimate(_Timed):
    """Predicted cost of one ORDER BY execution method."""

    method: SortMethod
    cells: LedgerSnapshot = _NO_CELLS
    ram_peak: int = 0
    n_runs: int = 0
    infeasible: bool = False
    note: str = ""
    chosen: bool = False


@dataclass
class OrderReport:
    """Every ordering method the planner weighed for one query.

    Attached to :class:`~repro.core.plan.OrderPlan` and rendered by
    ``EXPLAIN`` below the strategy candidates.
    """

    candidates: List[OrderEstimate]
    est_rows: float

    @property
    def chosen(self) -> Optional[OrderEstimate]:
        return next((c for c in self.candidates if c.chosen), None)

    def describe(self) -> str:
        lines = [f"order candidates (est {self.est_rows:.0f} rows):"]
        for cand in sorted(self.candidates,
                           key=lambda c: (c.infeasible, c.total_us)):
            line = (f"  {cand.method.value:<14s} est {cand.total_s:9.4f}s"
                    f"  ram {cand.ram_peak:>6d}B")
            if cand.n_runs > 1:
                line += f"  ({cand.n_runs} runs)"
            if cand.note:
                line += f"  {cand.note}"
            if cand.chosen:
                line += "  <- chosen"
            lines.append(line)
        return "\n".join(lines)


class CostModel:
    """Prices candidate plans against the statistics catalog."""

    def __init__(self, catalog: SecureCatalog, token: SecureToken):
        self.catalog = catalog
        self.token = token
        self.page = token.page_size
        self.ids_per_page = token.ids_per_page
        #: one full-page node read (SKT pages, hidden images, logs)
        self.node: IO = (1, self.page)

    # ------------------------------------------------------------------
    # I/O shapes: (page operations, bytes moved) of one access
    # ------------------------------------------------------------------
    def _leaf(self, tree) -> IO:
        """One B+-tree leaf read: only the node's fill crosses to RAM."""
        fill = 3 + math.ceil(
            tree.n_entries / max(1, tree.n_leaves)
        ) * (tree.key_width + tree.payload_width)
        return 1, min(self.page, fill)

    def _descent(self, tree) -> IO:
        """One root-to-leaf descent, internal-node fills included."""
        if tree.n_entries == 0 or tree.height <= 1:
            return self._leaf(tree)
        fanout = max(2.0, tree.n_leaves ** (1.0 / (tree.height - 1)))
        internal_fill = 3 + fanout * (tree.key_width + 4)
        internal = min(self.page, math.ceil(internal_fill))
        return tree.height, (tree.height - 1) * internal + self._leaf(tree)[1]

    def _ids(self, n_ids: int) -> IO:
        """``n_ids`` packed u32s through a U32View cursor or a
        U32FileBuilder."""
        if n_ids <= 0:
            return 0, 0
        return math.ceil(n_ids / self.ids_per_page), n_ids * 4

    # ------------------------------------------------------------------
    # charging an estimate: counts, at the prices the token charges
    # ------------------------------------------------------------------
    def _read(self, cells: Cells, label: str, io: IO,
              times: float = 1) -> None:
        """``times`` page reads of shape ``io``, under ``label``."""
        if io[0] and times:
            _add(cells, (label, READ, READ_PRICE),
                 times * io[0], times * io[1])

    def _write(self, cells: Cells, label: str, io: IO,
               times: float = 1) -> None:
        """``times`` page writes of shape ``io``, under ``label``."""
        if io[0] and times:
            _add(cells, (label, WRITE, WRITE_PRICE),
                 times * io[0], times * io[1])

    @staticmethod
    def _pages_touched(n_probes: float, n_pages: int) -> float:
        """Expected distinct pages hit by ``n_probes`` uniform sorted
        probes over ``n_pages`` (the SJoin page-skipping model)."""
        if n_probes <= 0 or n_pages <= 0:
            return 0.0
        return n_pages * (1.0 - math.exp(-n_probes / n_pages))

    # ------------------------------------------------------------------
    # statistics shorthands
    # ------------------------------------------------------------------
    def _live(self, table: str) -> int:
        return max(1, self.catalog.live_rows(table))

    def _sel(self, selections: List[BoundSelection]) -> float:
        """Combined selectivity of ``selections`` (independence)."""
        sel = 1.0
        for s in selections:
            sel *= self.catalog.selectivity(s.table, s.column.name,
                                            s.predicate)
        return sel

    def _fanout(self, high: str, low: str) -> float:
        """Average number of ``high`` rows per ``low`` row."""
        return self._live(high) / self._live(low)

    # ------------------------------------------------------------------
    # per-operator estimators (each names the code path it prices)
    # ------------------------------------------------------------------
    def _ci_lookup(self, cells: Cells, index: ClimbingIndex,
                   sel: BoundSelection, level_rows: int,
                   selectivity: float) -> None:
        """One ``op_ci`` call: descent + delta-log climb under ``CI``,
        then the matched id run, which Merge reads."""
        tree = index.btree
        points = sel.predicate.points()
        if points is not None:
            self._read(cells, CI_LABEL, self._descent(tree),
                       len(set(points)))
        else:
            # range(): one descent plus a leaf scan of the matched span
            self._read(cells, CI_LABEL, self._descent(tree))
            self._read(cells, CI_LABEL, self._leaf(tree),
                       max(1.0, selectivity * tree.n_leaves))
        self._delta_log(cells, index, points is not None)
        self._read(cells, MERGE_LABEL,
                   self._ids(round(selectivity * level_rows)))

    def _delta_log(self, cells: Cells, index: ClimbingIndex,
                   point_probe: bool) -> None:
        """Appended rows (``CI``): the delta log is scanned unless the
        delta-key Bloom proves a sought point key was never appended."""
        if not index.delta_entries:
            return
        p_scan = 1.0
        if point_probe:
            p_scan = min(1.0, index.delta_bloom_fp + index.delta_entries
                         / max(1, index.btree.n_entries))
        self._read(cells, CI_LABEL, self.node,
                   p_scan * index.delta_log_pages)

    def _id_climb(self, cells: Cells, table: str, anchor: str,
                  n_ids: float) -> None:
        """``op_ci_ids``: Pre-Filter's per-ID index descents under
        ``CI``, then the per-entry anchor sublists (one small view per
        ID), which Merge reads."""
        index = self.catalog.id_indexes.get(table)
        if index is None:                     # anchor ids need no climb
            return
        fan = self._fanout(anchor, table)
        self._read(cells, CI_LABEL, self._descent(index.btree), n_ids)
        self._delta_log(cells, index, True)   # an 'in' probe
        self._read(cells, MERGE_LABEL,
                   (math.ceil(max(1.0, fan * 4 / self.page)), fan * 4),
                   n_ids)

    def _merge_reduction(self, cells: Cells, n_runs: float,
                         total_ids: float, reserve_buffers: int) -> None:
        """Reduction phase when open runs outnumber RAM buffers.

        Each reduction level folds ~(B-1) runs into one flash run, so
        the data is rewritten ``ceil(log_{B-1}(R/B))`` times."""
        budget = max(1, self.token.ram.n_buffers - reserve_buffers)
        if n_runs <= budget or budget < 3:
            return
        levels = math.ceil(math.log(n_runs / budget) / math.log(budget - 1))
        self._read(cells, MERGE_LABEL, self._ids(round(total_ids)), levels)
        self._write(cells, MERGE_LABEL, self._ids(round(total_ids)), levels)

    def _bloom_geometry(self, n_items: float,
                        n_extra: int) -> Tuple[int, float]:
        """Post-Filter Bloom size and fp rate within the RAM envelope."""
        n = max(1, round(n_items))
        budget = post_bloom_budget(self.token.ram.capacity, n_extra,
                                   self.page)
        m_bytes = min(n, budget)             # 8 bits per item ideally
        fp = false_positive_rate(m_bytes * 8 / n, DEFAULT_HASHES)
        return m_bytes, fp

    # ------------------------------------------------------------------
    # the full-plan estimate
    # ------------------------------------------------------------------
    def estimate(self, bound: BoundQuery, assignment: Assignment,
                 projection_mode: ProjectionMode = ProjectionMode.PROJECT,
                 ) -> PlanEstimate:
        """Predict the executor's ledger cells for one decided plan."""
        cells: Cells = {}
        catalog = self.catalog
        schema = catalog.schema
        anchor = bound.anchor
        n_anchor = self._live(anchor)
        choices = dict(assignment)

        # ---- query-wide selectivities ------------------------------
        hidden = list(bound.hidden_selections())
        s_hidden = [self._sel([sel]) for sel in hidden]
        requested = vis_tables(bound)
        sV = {t: self._sel(bound.visible_selections(t)) for t in requested
              if bound.visible_selections(t)}
        # the rows each requested table's answer carries
        nV = {t: sV.get(t, 1.0) * self._live(t) for t in requested}

        # ---- Vis: the statement's announcement (its text, one
        # message) and request set, one exchange per table -- the same
        # for every candidate and projection mode
        to_untrusted = max(1, len(bound.sql))
        _add(cells, (VIS_LABEL, COMM, self.token.channel.throughput_mbps),
             1, to_untrusted)
        to_secure = 0
        for t in requested:
            request = vis_request(bound, t)
            outbound = request.wire_size()
            inbound = round(nV[t]) * (
                4 + self._width(t, list(request.columns)))
            # the request out and the answer back: two messages
            _add(cells, (VIS_LABEL, COMM, self.token.channel.throughput_mbps),
                 2, outbound + inbound)
            to_secure += inbound
            to_untrusted += outbound

        # ---- hidden selections: op_ci climbed to the anchor --------
        for i, sel in enumerate(hidden):
            index = catalog.attr_indexes.get((sel.table, sel.column.name))
            if index is not None:
                self._ci_lookup(cells, index, sel, n_anchor, s_hidden[i])

        # ---- per-table strategies ----------------------------------
        extra_tables = tables_beyond_anchor(bound, choices)
        reserve = 4 + len(extra_tables)
        count_sj = n_anchor * math.prod(s_hidden)  # ids entering SJoin
        if anchor in sV:
            count_sj *= sV[anchor]
        post_factor = 1.0                 # Bloom-probe survival factor
        post_select: List[Tuple[str, float]] = []   # (table, nV_eff)
        merge_runs = float(len(hidden) + (1 if anchor in sV else 0))
        merge_ids = n_anchor * (sum(s_hidden)
                                + (sV[anchor] if anchor in sV else 0.0))
        # flash-resident merge groups: each holds >= 1 open buffer even
        # after reductions (anchor Vis ids arrive as a RAM list: free)
        flash_groups = len(hidden)
        ram_sj = 0                        # Bloom bytes held in the pipeline

        for t in sV:
            if t == anchor:
                continue
            choice = choices.get(t, Choice(VisStrategy.PRE, False))
            n_eff = nV[t]
            if choice.cross:
                for i, sel in enumerate(hidden):
                    if schema.is_ancestor(t, sel.table):
                        index = catalog.attr_indexes.get(
                            (sel.table, sel.column.name))
                        if index is not None:
                            # a second op_ci, this time at t's level
                            self._ci_lookup(cells, index, sel,
                                            self._live(t), s_hidden[i])
                        n_eff *= s_hidden[i]
            if choice.strategy is VisStrategy.PRE:
                self._id_climb(cells, t, anchor, n_eff)
                count_sj *= sV[t]
                fan = self._fanout(anchor, t)
                merge_runs += n_eff
                merge_ids += n_eff * fan
                flash_groups += 1
            elif choice.strategy is VisStrategy.POST:
                m_bytes, fp = self._bloom_geometry(n_eff,
                                                   len(extra_tables))
                post_factor *= sV[t] + fp * (1.0 - sV[t])
                ram_sj += m_bytes
            elif choice.strategy is VisStrategy.POST_SELECT:
                post_select.append((t, n_eff))
            # NOFILTER: nothing happens until projection

        # ---- Merge reduction phase ---------------------------------
        self._merge_reduction(cells, merge_runs, merge_ids,
                              reserve_buffers=reserve)

        # ---- SJoin + Store -----------------------------------------
        count_store = count_sj * post_factor
        n_cols = 1 + len(extra_tables)
        if extra_tables:
            skt = catalog.skts.get(anchor)
            self._read(cells, SJOIN_LABEL, self.node, self._pages_touched(
                count_sj, skt.n_pages if skt is not None else 1))
        self._write(cells, STORE_LABEL, self._ids(round(count_store)),
                    n_cols)

        # ---- Post-Select passes over the stored columns ------------
        count_final = count_store
        for t, n_eff in post_select:
            passes = math.ceil(max(1.0, n_eff) / post_select_chunk_ids(
                self.token.ram.capacity))
            stored = self._ids(round(count_store))
            self._read(cells, PROJECT_LABEL, stored, passes)
            # exact rewrite of every stored column
            self._read(cells, PROJECT_LABEL, stored, n_cols)
            self._write(cells, PROJECT_LABEL,
                        self._ids(round(count_store * sV[t])), n_cols)
            count_final *= sV[t]

        # ---- Projection (QEPP) -------------------------------------
        self._estimate_projection(cells, bound, choices, nV, count_final,
                                  projection_mode)

        # ---- feasibility: even the fully reduced pipeline must hold
        # its buffers, or the executor would exhaust secure RAM
        pipeline = (1 if extra_tables else 0) + n_cols
        min_sj = (flash_groups + pipeline) * self.page + ram_sj
        return PlanEstimate(LedgerSnapshot(cells, {}), to_secure, to_untrusted,
                            infeasible=min_sj > self.token.ram.capacity)

    # ------------------------------------------------------------------
    def _width(self, table: str, names: List[str]) -> int:
        columns = self.catalog.schema.table(table)
        return sum(columns.column(n).type.width for n in names)

    def _heap_pages(self, table: str) -> int:
        """Pages of ``table``'s hidden image heap (0 without one)."""
        image = self.catalog.images.get(table)
        if image is None or image.heap is None:
            return 0
        return image.heap.file.n_pages

    def _estimate_projection(self, cells: Cells, bound: BoundQuery,
                             choices: Dict[str, Choice],
                             nV: Dict[str, float], count: float,
                             mode: ProjectionMode) -> None:
        """Price the QEPP phase of :mod:`repro.core.project`, all of it
        under ``Project``; ``nV`` holds the Vis rows of every requested
        table."""
        if count <= 0:
            return
        anchor = bound.anchor
        per_table = projected_values(bound)
        approx = {t for t, c in choices.items()
                  if c.strategy in (VisStrategy.POST, VisStrategy.NOFILTER)}
        mjoined = (set(per_table) | approx) - {anchor}

        if mode is ProjectionMode.BRUTE_FORCE:
            self._estimate_brute_force(cells, per_table, approx, nV,
                                       count)
            return

        for t in sorted(mjoined):
            attrs = per_table.get(t, {"vis": [], "hid": []})
            has_vis_side = t in nV
            candidates = count
            if has_vis_side:
                # sigma_VH over the table's Vis rows: Bloom filter
                n_rows = nV[t]
                if mode is ProjectionMode.PROJECT:
                    # Bloom over the t column: one column read
                    self._read(cells, PROJECT_LABEL, self._ids(round(count)))
                    candidates = min(n_rows, count) + 0.024 * n_rows
                else:
                    candidates = n_rows
            else:
                # hidden-only: sequential scan of the hidden image
                self._read(cells, PROJECT_LABEL, self.node,
                           self._heap_pages(t))
                candidates = count
            if attrs["hid"] and has_vis_side:
                self._read(cells, PROJECT_LABEL, self.node,
                           self._pages_touched(candidates,
                                               self._heap_pages(t)))
            # MJoin: RAM-bounded passes over the t column
            entry_bytes = 4 + self._width(t, attrs["vis"] + attrs["hid"])
            passes = math.ceil(max(1.0, candidates) / mjoin_chunk_rows(
                self.token.ram.capacity, self.page, entry_bytes))
            self._read(cells, PROJECT_LABEL, self._ids(round(count)), passes)
            # matched <pos, values> heap writes + the final-join scan
            matched = min(candidates, count)
            heap_pages = math.ceil(
                matched * entry_bytes / max(1, self.page - 4))
            self._write(cells, PROJECT_LABEL, (1, self.page), heap_pages)
            self._read(cells, PROJECT_LABEL, self.node, heap_pages)

        # final position-ordered join: anchor ids + one id column per
        # projected non-anchor table
        id_cols = {col.column.references if col.column.is_foreign_key
                   else col.table
                   for col in bound.projections
                   if col.column.is_id or col.column.is_foreign_key}
        id_cols.discard(anchor)
        self._read(cells, PROJECT_LABEL, self._ids(round(count)),
                   1 + len(id_cols))
        # anchor-side hidden values
        if per_table.get(anchor, {"hid": []})["hid"]:
            self._read(cells, PROJECT_LABEL, self.node, self._pages_touched(
                count, self._heap_pages(anchor)))

    # ------------------------------------------------------------------
    # result cardinality (run-count input for the ordering step)
    # ------------------------------------------------------------------
    def estimate_result_rows(self, bound: BoundQuery) -> float:
        """Expected result rows: live anchors times every selectivity
        (attribute-independence, same as the strategy estimators)."""
        return (self._live(bound.anchor)
                * self._sel(list(bound.selections)))

    def estimate_group_rows(self, bound: BoundQuery) -> float:
        """Expected output groups of an aggregate query: the product of
        the GROUP BY columns' distinct-value sketches, capped by the
        pre-aggregation row estimate."""
        groups = 1.0
        for col in bound.group_by:
            stats = self.catalog.stats.get(col.table)
            distinct = (stats.distinct(col.column.name)
                        if stats is not None else None)
            groups *= distinct if distinct else self._live(col.table)
        return max(1.0, min(groups, self.estimate_result_rows(bound)))

    # ------------------------------------------------------------------
    # the ordering step (external sort / top-k heap / index order)
    # ------------------------------------------------------------------
    def estimate_order(self, bound: BoundQuery,
                       index: Optional[ClimbingIndex] = None,
                       index_note: Optional[str] = None) -> OrderReport:
        """Price every way to execute the query's ORDER BY / LIMIT.

        Requires a non-empty ORDER BY (the planner handles key-less
        LIMIT/OFFSET as a plain TRUNCATE without costing it).
        ``index`` is the usable climbing index on the (single) ORDER BY
        key, or ``None`` -- availability is the planner's call (delta
        logs and fk deltas break value order; ``index_note`` carries
        the planner's gating reason into the report).  Run counts
        derive from the statistics catalog's cardinality estimates.
        """
        if not bound.order_by:
            raise PlanError("estimate_order needs ORDER BY keys")
        n_rows = (self.estimate_group_rows(bound) if bound.is_aggregate
                  else self.estimate_result_rows(bound))
        candidates: List[OrderEstimate] = []
        capacity = self.token.ram.capacity
        entry = SortKeyCodec(bound.order_by).entry_bytes
        words = entry // 4

        # ---- external merge sort (always available) ----------------
        chunk_bytes = max(entry, capacity - 2 * self.page)
        per_chunk = max(1, chunk_bytes // entry)
        n_runs = math.ceil(max(1.0, n_rows) / per_chunk)
        ext = OrderEstimate(SortMethod.EXTERNAL, n_runs=n_runs)
        if n_runs <= 1:
            ext.ram_peak = round(min(chunk_bytes, max(1.0, n_rows) * entry))
        else:
            total_words = round(n_rows) * words
            passes = 1                    # spill once, read back once
            budget = max(1, self.token.ram.n_buffers - 2)
            if n_runs > budget:
                # reduction passes: the sorter folds ~max(2, budget-1)
                # runs per pass (smallest first), rewriting the data
                # once per level -- with 2-way folds (tiny budgets)
                # that is ~log2(n_runs) rewrites, which dominates
                # exactly where RAM is scarcest
                fold = max(2, budget - 1)
                passes += math.ceil(math.log(n_runs / budget)
                                    / math.log(fold))
            cells: Cells = {}
            self._write(cells, SORT_LABEL, self._ids(total_words), passes)
            self._read(cells, SORT_LABEL, self._ids(total_words), passes)
            ext.cells = LedgerSnapshot(cells, {})
            ext.ram_peak = round(chunk_bytes + self.page)
            if self.token.ram.n_buffers < 3:
                # merging spilled runs holds >= 2 open-run buffers plus
                # the output builder's; a 2-buffer token cannot run it
                ext.infeasible = True
                ext.note = "(merge needs 3 page buffers)"
        candidates.append(ext)

        # ---- bounded top-k heap (needs a LIMIT that fits RAM) -------
        if bound.limit is not None:
            k = bound.offset + bound.limit
            ram = k * entry
            topk = OrderEstimate(SortMethod.TOP_K, ram_peak=ram)
            # the heap holds no page buffers, only its records; one
            # page of slack keeps it viable on 2-buffer tokens
            if ram > capacity - self.page:
                topk.infeasible = True
                topk.note = "(LIMIT exceeds secure RAM)"
            candidates.append(topk)
        else:
            candidates.append(OrderEstimate(
                SortMethod.TOP_K, infeasible=True, note="(no LIMIT)"))

        # ---- index-order scan (sort avoidance) ---------------------
        if index is not None:
            n_anchor = self._live(bound.anchor)
            k = (bound.offset + bound.limit if bound.limit is not None
                 else None)
            fraction = (min(1.0, k / max(1.0, n_rows)) if k is not None
                        else 1.0)
            cells = {}
            self._read(cells, SORT_LABEL, self._leaf(index.btree),
                       fraction * index.btree.n_leaves)
            self._read(cells, SORT_LABEL,
                       self._ids(round(fraction * n_anchor)))
            scan = OrderEstimate(SortMethod.INDEX_ORDER,
                                 LedgerSnapshot(cells, {}))
            scan.ram_peak = round(min(capacity, n_rows * 8 + 2 * self.page))
            if n_rows * 8 + 2 * self.page > capacity:
                scan.infeasible = True
                scan.note = "(id map exceeds secure RAM)"
            candidates.append(scan)
        else:
            candidates.append(OrderEstimate(
                SortMethod.INDEX_ORDER, infeasible=True,
                note=index_note or "(no usable index)"))
        return OrderReport(candidates, n_rows)

    def _estimate_brute_force(self, cells: Cells,
                              per_table: Dict[str, Dict[str, List]],
                              approx: set, nV: Dict[str, float],
                              count: float) -> None:
        """Price the Figures 12/13 baseline: materialize Vis values at
        id positions, then random point reads per QEPSJ row."""
        needed = (set(per_table) | approx)
        for t in sorted(needed):
            attrs = per_table.get(t, {"vis": [], "hid": []})
            n_rows = self._live(t)
            if t in nV:
                width = max(1, self._width(t, attrs["vis"]))
                pages = math.ceil(n_rows * width / max(1, self.page - 4))
                self._write(cells, PROJECT_LABEL, (1, self.page), pages)
            # one random read per result row per touched table
            self._read(cells, PROJECT_LABEL, self.node, count)
        self._read(cells, PROJECT_LABEL, self._ids(round(count)),
                   max(1, len(needed)))
