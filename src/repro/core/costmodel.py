"""Analytic cost model behind the cost-based strategy optimizer.

The paper charts the Pre/Post/Cross/NoFilter decision surface
empirically (Figures 8-13) and leaves the optimizer to future work.
This module closes that gap: for every candidate strategy assignment
it predicts what the executor would charge -- channel bytes at the
configured throughput, flash page reads and writes (including
climbing-index descents, delta-log climbs gated by the delta-key
Bloom's false-positive rate, SJoin page skipping, Store
materialization, Post-Filter Bloom false positives, Post-Select
passes and the projection phase) and the secure-RAM peak -- using
only the statistics catalog and the token's hardware parameters.
Nothing here touches flash or the channel: estimation is free and
leak-free.

Each helper names the code path it prices in
:mod:`repro.core.operators`, :mod:`repro.core.executor` and
:mod:`repro.core.project`.  The rules both sides must agree on -- the
Vis request set, which tables QEPSJ carries, which values are
projected, the Bloom, Post-Select and MJoin RAM envelopes -- are
functions those modules own and this one calls with ``ram.capacity``
where the operator passes ``ram.free_bytes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.catalog import SecureCatalog
from repro.core.executor import post_bloom_budget, tables_beyond_anchor
from repro.core.operators import (post_select_chunk_ids, projected_values,
                                  vis_request, vis_tables)
from repro.core.plan import ProjectionMode, SortMethod, VisStrategy
from repro.core.project import mjoin_chunk_rows
from repro.errors import PlanError
from repro.hardware.token import SecureToken
from repro.index.bloom import DEFAULT_HASHES, false_positive_rate
from repro.index.climbing import ClimbingIndex
from repro.sql.binder import BoundQuery, BoundSelection


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


@dataclass
class PlanEstimate:
    """Predicted cost of one fully decided plan."""

    total_us: float = 0.0
    flash_us: float = 0.0
    channel_us: float = 0.0
    bytes_to_secure: int = 0
    bytes_to_untrusted: int = 0
    ram_peak: int = 0
    by_phase: Dict[str, float] = field(default_factory=dict)
    #: the fully reduced pipeline cannot hold its buffers in secure
    #: RAM -- the executor would raise; never chosen over a feasible
    #: candidate and never executed by ``EXPLAIN ANALYZE``
    infeasible: bool = False

    @property
    def total_s(self) -> float:
        return self.total_us / 1e6


@dataclass
class CandidateCost:
    """One candidate assignment with its estimated (and, after an
    ``EXPLAIN ANALYZE`` pass, measured) cost."""

    assignment: Assignment
    estimate: PlanEstimate
    chosen: bool = False
    measured_s: Optional[float] = None

    def describe(self) -> str:
        return ", ".join(f"{t}={c.describe()}" for t, c in self.assignment)


class _Acc:
    """Accumulator for one candidate's estimate."""

    def __init__(self) -> None:
        self.est = PlanEstimate()

    def flash(self, phase: str, us: float) -> None:
        self.est.flash_us += us
        self.est.by_phase[phase] = self.est.by_phase.get(phase, 0.0) + us

    def channel(self, phase: str, us: float, inbound: int = 0,
                outbound: int = 0) -> None:
        self.est.channel_us += us
        self.est.bytes_to_secure += inbound
        self.est.bytes_to_untrusted += outbound
        self.est.by_phase[phase] = self.est.by_phase.get(phase, 0.0) + us

    def finish(self) -> PlanEstimate:
        self.est.total_us = self.est.flash_us + self.est.channel_us
        return self.est


@dataclass
class CostReport:
    """All candidates the optimizer weighed for one query.

    Attached to :class:`~repro.core.plan.QueryPlan` when the planner
    ran cost-based (no strategy override); rendered by ``EXPLAIN``.
    """

    candidates: List[CandidateCost]
    selectivities: Dict[str, float]        # per-table visible sel
    hidden_selectivities: Dict[str, float]  # per hidden predicate

    @property
    def chosen(self) -> Optional[CandidateCost]:
        for cand in self.candidates:
            if cand.chosen:
                return cand
        return None

    def describe(self) -> str:
        lines = ["candidates (cost-based):"]
        show_measured = any(c.measured_s is not None
                            for c in self.candidates)
        for cand in sorted(self.candidates,
                           key=lambda c: (c.estimate.infeasible,
                                          c.estimate.total_us)):
            est = cand.estimate
            line = (f"  {cand.describe():<42s} est {est.total_s:9.4f}s"
                    f"  chan {est.bytes_to_secure + est.bytes_to_untrusted:>9d}B"
                    f"  ram {est.ram_peak:>6d}B")
            if est.infeasible:
                line += "  infeasible (RAM)"
            elif show_measured and cand.measured_s is not None:
                line += f"  measured {cand.measured_s:9.4f}s"
            if cand.chosen:
                line += "  <- chosen"
            lines.append(line)
        return "\n".join(lines)


@dataclass
class OrderEstimate:
    """Predicted cost of one ORDER BY execution method."""

    method: SortMethod
    total_us: float = 0.0
    ram_peak: int = 0
    n_runs: int = 0
    infeasible: bool = False
    note: str = ""
    chosen: bool = False

    @property
    def total_s(self) -> float:
        return self.total_us / 1e6


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
        for cand in self.candidates:
            if cand.chosen:
                return cand
        return None

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
        self.params = token.config.flash
        self.page = token.page_size
        self.ids_per_page = token.ids_per_page

    # ------------------------------------------------------------------
    # hardware shorthands
    # ------------------------------------------------------------------
    def _t_node(self) -> float:
        """One full-page node read (SKT pages, hidden images, logs)."""
        return self.params.read_time_us(self.page)

    def _leaf_read_us(self, tree) -> float:
        """One B+-tree leaf read: only the node's fill crosses to RAM."""
        fill = 3 + math.ceil(
            tree.n_entries / max(1, tree.n_leaves)
        ) * (tree.key_width + tree.payload_width)
        return self.params.read_time_us(min(self.page, fill))

    def _descent_us(self, tree) -> float:
        """One root-to-leaf descent, internal-node fills included."""
        if tree.n_entries == 0 or tree.height <= 1:
            return self._leaf_read_us(tree)
        fanout = max(2.0, tree.n_leaves ** (1.0 / (tree.height - 1)))
        internal_fill = 3 + fanout * (tree.key_width + 4)
        internal = self.params.read_time_us(
            min(self.page, math.ceil(internal_fill)))
        return (tree.height - 1) * internal + self._leaf_read_us(tree)

    def _t_ids_read(self, n_ids: int) -> float:
        """Reading ``n_ids`` packed u32s through a U32View cursor."""
        if n_ids <= 0:
            return 0.0
        pages = math.ceil(n_ids / self.ids_per_page)
        return (pages * self.params.read_page_us
                + n_ids * 4 * self.params.byte_transfer_ns / 1000.0)

    def _t_ids_write(self, n_ids: int) -> float:
        """Writing ``n_ids`` packed u32s through a U32FileBuilder."""
        if n_ids <= 0:
            return 0.0
        pages = math.ceil(n_ids / self.ids_per_page)
        return (pages * self.params.write_page_us
                + n_ids * 4 * self.params.byte_transfer_ns / 1000.0)

    def _t_chan(self, nbytes: int) -> float:
        return nbytes / self.token.channel.throughput_mbps

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

    def vis_selectivity(self, bound: BoundQuery, table: str) -> float:
        return self._sel(bound.visible_selections(table))

    def _fanout(self, high: str, low: str) -> float:
        """Average number of ``high`` rows per ``low`` row."""
        return self._live(high) / self._live(low)

    # ------------------------------------------------------------------
    # per-operator estimators (each names the code path it prices)
    # ------------------------------------------------------------------
    def _ci_lookup_us(self, index: ClimbingIndex, sel: BoundSelection,
                      level_rows: int, selectivity: float) -> float:
        """One ``op_ci`` call: descent + run read + delta-log climb."""
        tree = index.btree
        points = sel.predicate.points()
        if points is not None:
            descent = len(set(points)) * self._descent_us(tree)
        else:
            # range(): one descent plus a leaf scan of the matched span
            span_leaves = max(1.0, selectivity * tree.n_leaves)
            descent = (self._descent_us(tree)
                       + span_leaves * self._leaf_read_us(tree))
        runs = self._t_ids_read(round(selectivity * level_rows))
        # appended rows: the delta log is scanned unless the delta-key
        # Bloom proves the sought key was never appended
        delta = 0.0
        if index.delta_entries:
            if points is not None:
                appended_frac = index.delta_entries / max(1, tree.n_entries)
                p_scan = min(1.0, index.delta_bloom_fp + appended_frac)
            else:
                p_scan = 1.0
            delta = p_scan * index.delta_log_pages * self._t_node()
        return descent + runs + delta

    def _id_climb_us(self, table: str, anchor: str, n_ids: float) -> float:
        """``op_ci_ids``: Pre-Filter's per-ID index descents plus the
        per-entry anchor sublist reads (one small view per ID)."""
        index = self.catalog.id_indexes.get(table)
        if index is None:                     # anchor ids need no climb
            return 0.0
        fan = self._fanout(anchor, table)
        per_view_pages = math.ceil(max(1.0, fan * 4 / self.page))
        per_view = (per_view_pages * self.params.read_page_us
                    + fan * 4 * self.params.byte_transfer_ns / 1000.0)
        delta = 0.0
        if index.delta_entries:
            # an 'in' probe over appended ids: Bloom-gated log scan
            p_scan = min(1.0, index.delta_bloom_fp
                         + index.delta_entries / max(1, index.btree.n_entries))
            delta = p_scan * index.delta_log_pages * self._t_node()
        return n_ids * (self._descent_us(index.btree) + per_view) + delta

    def _merge_reduction_us(self, n_runs: float, total_ids: float,
                            reserve_buffers: int) -> float:
        """Reduction phase when open runs outnumber RAM buffers.

        Each reduction level folds ~(B-1) runs into one flash run, so
        the data is rewritten ``ceil(log_{B-1}(R/B))`` times."""
        budget = max(1, self.token.ram.n_buffers - reserve_buffers)
        if n_runs <= budget or budget < 3:
            return 0.0
        levels = math.ceil(
            math.log(n_runs / budget) / math.log(budget - 1)
        ) if n_runs > budget else 0
        per_level = (self._t_ids_read(round(total_ids))
                     + self._t_ids_write(round(total_ids)))
        return levels * per_level

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
        """Predict the executor's charges for one decided plan."""
        acc = _Acc()
        catalog = self.catalog
        schema = catalog.schema
        anchor = bound.anchor
        n_anchor = self._live(anchor)
        choices = dict(assignment)

        # ---- query-wide selectivities ------------------------------
        hidden = list(bound.hidden_selections())
        s_hidden: Dict[int, float] = {
            i: self._sel([sel]) for i, sel in enumerate(hidden)
        }
        sH_all = 1.0
        for s in s_hidden.values():
            sH_all *= s
        requested = vis_tables(bound)
        sV = {t: self.vis_selectivity(bound, t) for t in requested
              if bound.visible_selections(t)}
        # the rows each requested table's answer carries
        nV = {t: sV.get(t, 1.0) * self._live(t) for t in requested}

        # ---- Vis: the statement's request set, one exchange per
        # table -- the same for every candidate and projection mode
        for t in requested:
            request = vis_request(bound, t)
            outbound = request.wire_size()
            inbound = round(nV[t]) * (
                4 + self._width(t, list(request.columns)))
            acc.channel("Vis", self._t_chan(outbound + inbound),
                        inbound=inbound, outbound=outbound)

        # ---- hidden selections: op_ci climbed to the anchor --------
        for i, sel in enumerate(hidden):
            index = catalog.attr_indexes.get((sel.table, sel.column.name))
            if index is None:
                continue
            acc.flash("CI", self._ci_lookup_us(
                index, sel, n_anchor, s_hidden[i]
            ))

        # ---- per-table strategies ----------------------------------
        extra_tables = tables_beyond_anchor(bound, choices)
        reserve = 4 + len(extra_tables)
        count_sj = n_anchor * sH_all      # anchor ids entering SJoin
        if anchor in sV:
            count_sj *= sV[anchor]
        post_factor = 1.0                 # Bloom-probe survival factor
        post_select: List[Tuple[str, float]] = []   # (table, nV_eff)
        merge_runs = float(len(hidden) + (1 if anchor in sV else 0))
        merge_ids = n_anchor * (sum(s_hidden.values())
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
                            acc.flash("CI", self._ci_lookup_us(
                                index, sel, self._live(t), s_hidden[i]
                            ))
                        n_eff *= s_hidden[i]
            if choice.strategy is VisStrategy.PRE:
                acc.flash("CI", self._id_climb_us(t, anchor, n_eff))
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

        # ---- Merge (stream + possible reduction phase) -------------
        acc.flash("Merge", self._merge_reduction_us(
            merge_runs, merge_ids, reserve_buffers=reserve
        ))

        # ---- SJoin + Store -----------------------------------------
        count_store = count_sj * post_factor
        if extra_tables:
            skt = catalog.skts.get(anchor)
            skt_pages = skt.n_pages if skt is not None else 1
            acc.flash("SJoin", self._pages_touched(count_sj, skt_pages)
                      * self._t_node())
            n_cols = 1 + len(extra_tables)
        else:
            n_cols = 1
        acc.flash("Store", n_cols * self._t_ids_write(round(count_store)))

        # ---- Post-Select passes over the stored columns ------------
        count_final = count_store
        for t, n_eff in post_select:
            passes = math.ceil(max(1.0, n_eff) / post_select_chunk_ids(
                self.token.ram.capacity))
            acc.flash("Project",
                      passes * self._t_ids_read(round(count_store)))
            # exact rewrite of every stored column
            acc.flash("Project", n_cols * (
                self._t_ids_read(round(count_store))
                + self._t_ids_write(round(count_store * sV[t]))
            ))
            count_final *= sV[t]

        # ---- Projection (QEPP) -------------------------------------
        self._estimate_projection(acc, bound, choices, nV,
                                  count_final, projection_mode)

        # ---- RAM peak and feasibility ------------------------------
        capacity = self.token.ram.capacity
        pipeline = (1 if extra_tables else 0) + n_cols
        open_buffers = max(flash_groups, min(
            merge_runs, self.token.ram.n_buffers - reserve))
        phase_sj = (open_buffers + pipeline) * self.page + ram_sj
        min_sj = (flash_groups + pipeline) * self.page + ram_sj
        phase_ps = max((4 * min(round(n), post_select_chunk_ids(capacity))
                        for _, n in post_select), default=0)
        phase_proj = capacity // 2 if count_final else 0
        acc.est.ram_peak = min(capacity,
                               round(max(phase_sj, phase_ps, phase_proj)))
        if min_sj > capacity:
            # even the fully reduced pipeline cannot hold its buffers:
            # the executor would exhaust secure RAM
            acc.est.ram_peak = round(min_sj)
            acc.est.infeasible = True
        return acc.finish()

    # ------------------------------------------------------------------
    def _width(self, table: str, names: List[str]) -> int:
        columns = self.catalog.schema.table(table)
        return sum(columns.column(n).type.width for n in names)

    def _estimate_projection(self, acc: _Acc, bound: BoundQuery,
                             choices: Dict[str, Choice],
                             nV: Dict[str, float], count: float,
                             mode: ProjectionMode) -> None:
        """Price the QEPP phase of :mod:`repro.core.project`; ``nV``
        holds the Vis rows of every requested table."""
        if count <= 0:
            return
        catalog = self.catalog
        anchor = bound.anchor
        per_table = projected_values(bound)
        approx = {t for t, c in choices.items()
                  if c.strategy in (VisStrategy.POST, VisStrategy.NOFILTER)}
        mjoined = (set(per_table) | approx) - {anchor}

        if mode is ProjectionMode.BRUTE_FORCE:
            self._estimate_brute_force(acc, per_table, approx, nV, count)
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
                    acc.flash("Project", self._t_ids_read(round(count)))
                    candidates = min(n_rows, count) + 0.024 * n_rows
                else:
                    candidates = n_rows
            else:
                # hidden-only: sequential scan of the hidden image
                image = catalog.images.get(t)
                if image is not None and image.heap is not None:
                    acc.flash("Project",
                              image.heap.file.n_pages * self._t_node())
                candidates = count
            if attrs["hid"] and has_vis_side:
                image = catalog.images.get(t)
                if image is not None and image.heap is not None:
                    acc.flash("Project", self._pages_touched(
                        candidates, image.heap.file.n_pages
                    ) * self._t_node())
            # MJoin: RAM-bounded passes over the t column
            entry_bytes = 4 + self._width(t, attrs["vis"] + attrs["hid"])
            passes = math.ceil(max(1.0, candidates) / mjoin_chunk_rows(
                self.token.ram.capacity, self.page, entry_bytes))
            acc.flash("Project", passes * self._t_ids_read(round(count)))
            # matched <pos, values> heap writes + the final-join scan
            matched = min(candidates, count)
            heap_pages = math.ceil(
                matched * entry_bytes / max(1, self.page - 4))
            acc.flash("Project", heap_pages
                      * (self.params.write_time_us(self.page)
                         + self._t_node()))

        # final position-ordered join: anchor ids + one id column per
        # projected non-anchor table
        id_cols = {col.column.references if col.column.is_foreign_key
                   else col.table
                   for col in bound.projections
                   if col.column.is_id or col.column.is_foreign_key}
        id_cols.discard(anchor)
        acc.flash("Project",
                  (1 + len(id_cols)) * self._t_ids_read(round(count)))
        # anchor-side hidden values
        anchor_attrs = per_table.get(anchor, {"vis": [], "hid": []})
        if anchor_attrs["hid"]:
            image = catalog.images.get(anchor)
            if image is not None and image.heap is not None:
                acc.flash("Project", self._pages_touched(
                    count, image.heap.file.n_pages) * self._t_node())

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
        from repro.core.sort import SortKeyCodec

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
            ext.total_us = (self._t_ids_write(total_words)
                            + self._t_ids_read(total_words))
            budget = max(1, self.token.ram.n_buffers - 2)
            if n_runs > budget:
                # reduction passes: the sorter folds ~max(2, budget-1)
                # runs per pass (smallest first), rewriting the data
                # once per level -- with 2-way folds (tiny budgets)
                # that is ~log2(n_runs) rewrites, which dominates
                # exactly where RAM is scarcest
                fold = max(2, budget - 1)
                levels = math.ceil(math.log(n_runs / budget)
                                   / math.log(fold))
                ext.total_us += levels * (self._t_ids_read(total_words)
                                          + self._t_ids_write(total_words))
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
            scan = OrderEstimate(SortMethod.INDEX_ORDER)
            n_anchor = self._live(bound.anchor)
            k = (bound.offset + bound.limit if bound.limit is not None
                 else None)
            fraction = (min(1.0, k / max(1.0, n_rows)) if k is not None
                        else 1.0)
            scan.total_us = (
                fraction * index.btree.n_leaves
                * self._leaf_read_us(index.btree)
                + self._t_ids_read(round(fraction * n_anchor))
            )
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

    def _estimate_brute_force(self, acc: _Acc,
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
                acc.flash("Project",
                          pages * self.params.write_time_us(self.page))
            # one random read per result row per touched table
            acc.flash("Project", count * self._t_node())
        acc.flash("Project", self._t_ids_read(round(count))
                  * max(1, len(needed)))
