"""Cost-based strategy selection for Visible predicates.

The paper leaves a cost-based optimizer to future work but its
experiments chart the decision surface precisely: Pre-Filter wins at
high selectivity and loses its SJoin page-skipping edge beyond
sV ~= 0.1 (Figures 9/15); a Bloom Post-Filter stops paying off around
sV ~= 0.5, where postponing the selection to projection time
(NoFilter) wins (Figure 10); Cross-filtering helps "whatever the
selectivity" when a hidden selection exists on the same table or a
descendant (Figure 8).

Instead of hard-coding those crossover points, :class:`Planner`
derives them: it enumerates every candidate strategy assignment,
prices each with the :class:`~repro.core.costmodel.CostModel` against
the statistics catalog (channel bytes, flash page reads, secure-RAM
peak), and picks the cheapest.  Selectivities come from the token's
own sketches, so planning costs *zero* channel round trips -- the
count-probe protocol of earlier versions is gone.  Explicit
``vis_strategy``/``cross`` overrides still force one choice for all
tables, reproducing the paper's fixed-strategy experiments.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.catalog import SecureCatalog
from repro.core.costmodel import (
    Assignment,
    CandidateCost,
    Choice,
    CostModel,
    CostReport,
)
from repro.core.plan import (
    OrderPlan,
    ProjectionMode,
    QueryPlan,
    SortMethod,
    VisPlan,
    VisStrategy,
)
from repro.errors import PlanError
from repro.index.climbing import ClimbingIndex
from repro.sql.binder import BoundQuery

#: full-enumeration ceiling; beyond it the planner decides tables
#: greedily one at a time (assignments grow as 8^tables)
MAX_ASSIGNMENTS = 256

StrategyLike = Union[str, VisStrategy, None]
SortMethodLike = Union[str, SortMethod, None]


def scatter_order(order: Optional[OrderPlan]) -> Optional[OrderPlan]:
    """Rewrite a global :class:`OrderPlan` for one shard of a scatter.

    A shard cannot apply the query's OFFSET/LIMIT window: the rows it
    drops might be globally ranked above another shard's.  It *can*
    safely pre-sort and keep its own top ``offset + limit`` rows --
    any global window row from this shard must rank within the
    shard's local top ``offset + limit`` (the global order is total,
    so a shard's contribution to the window is a prefix of its local
    order).  The gather side heap-merges the pre-sorted streams and
    applies the window once, globally.
    """
    if order is None:
        return None
    stop = None if order.limit is None else order.offset + order.limit
    return dataclasses.replace(order, offset=0, limit=stop)


def coerce(enum_cls, value, what: str):
    """``value`` -- a member of ``enum_cls`` or its string -- as a member."""
    if isinstance(value, enum_cls):
        return value
    try:
        return enum_cls(value)
    except ValueError:
        names = [m.value for m in enum_cls]
        raise PlanError(
            f"unknown {what} {value!r}; expected one of {names}"
        ) from None


class Planner:
    """Builds :class:`QueryPlan` objects for bound queries."""

    def __init__(self, catalog: SecureCatalog):
        self.catalog = catalog
        self.cost_model = CostModel(catalog, catalog.token)
        self.plans_built = 0

    # ------------------------------------------------------------------
    def _cross_available(self, bound: BoundQuery, table: str) -> bool:
        """Cross filtering needs a hidden selection on ``table`` or on a
        descendant (their climbing indexes can deliver ``table`` IDs)."""
        schema = self.catalog.schema
        return any(
            schema.is_ancestor(table, sel.table)
            for sel in bound.hidden_selections()
        )

    def _vis_tables(self, bound: BoundQuery) -> List[str]:
        tables: List[str] = []
        for sel in bound.visible_selections():
            if sel.table not in tables:
                tables.append(sel.table)
        return tables

    # ------------------------------------------------------------------
    # candidate enumeration
    # ------------------------------------------------------------------
    def _choice_space(self, bound: BoundQuery, table: str,
                      cross: Optional[bool]) -> List[Choice]:
        if cross is None:
            cross_options: Tuple[bool, ...] = (True, False)
        elif cross:
            cross_options = (True,)
        else:
            cross_options = (False,)
        if not self._cross_available(bound, table):
            cross_options = (False,)
        return [Choice(strategy, use_cross)
                for use_cross in cross_options
                for strategy in VisStrategy]

    def _optimize(self, bound: BoundQuery, tables: Sequence[str],
                  cross: Optional[bool], mode: ProjectionMode
                  ) -> CostReport:
        """Enumerate and price candidate assignments; cheapest first."""
        spaces = {t: self._choice_space(bound, t, cross) for t in tables}
        n_assignments = 1
        for choices in spaces.values():
            n_assignments *= len(choices)
        if n_assignments <= MAX_ASSIGNMENTS:
            assignments: List[Assignment] = [
                tuple(zip(tables, combo))
                for combo in itertools.product(
                    *(spaces[t] for t in tables))
            ]
        else:
            assignments = self._greedy_assignments(bound, tables, spaces,
                                                   mode)
        candidates = [
            CandidateCost(assignment=a,
                          estimate=self.cost_model.estimate(bound, a, mode))
            for a in assignments
        ]
        best = min(candidates, key=lambda c: (c.estimate.infeasible,
                                              c.estimate.total_us))
        best.chosen = True
        return CostReport(candidates)

    def _greedy_assignments(self, bound: BoundQuery,
                            tables: Sequence[str],
                            spaces: Dict[str, List[Choice]],
                            mode: ProjectionMode) -> List[Assignment]:
        """Fix tables one at a time (others pinned at Pre-Filter); the
        returned list holds one final assignment per local winner so
        the report stays small on very wide queries."""
        decided: Dict[str, Choice] = {
            t: Choice(VisStrategy.PRE, False) for t in tables
        }
        for table in tables:
            best, best_cost = None, None
            for choice in spaces[table]:
                trial = dict(decided)
                trial[table] = choice
                cost = self.cost_model.estimate(
                    bound, tuple(sorted(trial.items())), mode
                ).total_us
                if best_cost is None or cost < best_cost:
                    best, best_cost = choice, cost
            decided[table] = best
        return [tuple(sorted(decided.items()))]

    # ------------------------------------------------------------------
    # the ordering step
    # ------------------------------------------------------------------
    def _order_index(self, bound: BoundQuery
                     ) -> Tuple[Optional[ClimbingIndex], Optional[str]]:
        """The climbing index whose value order can serve the ORDER BY.

        Usable only when the (single) key column carries an index whose
        levels reach the anchor, *and* no DML has appended entries the
        value-ordered runs do not cover: a non-empty delta log, or fk
        deltas on any level below the anchor, break index order.

        Returns ``(index, None)`` when usable and ``(None, reason)``
        when an existing index is *gated* by unfolded DML -- the reason
        lands in the order report (and so in EXPLAIN) together with the
        ``db.compact(...)`` call that would lift the gate, instead of
        disappearing into a silent fallback to external sort.
        """
        if len(bound.order_by) != 1 or bound.is_aggregate \
                or bound.distinct:
            return None, None
        key = bound.order_by[0].column
        index = self.catalog.attr_indexes.get((key.table, key.column.name))
        if index is None or bound.anchor not in index.levels:
            return None, None
        if index.delta_entries:
            return None, (
                f"(gated: {index.delta_entries} delta-log entries on "
                f"{key.table}.{key.column.name} break value order; "
                f"db.compact({key.table!r}) folds them)"
            )
        anchor_pos = index.levels.index(bound.anchor)
        for level in index.levels[:anchor_pos]:
            edges = self.catalog.fk_deltas.get(level)
            if edges:
                n = sum(len(v) for v in edges.values())
                return None, (
                    f"(gated: {n} fk delta edges on {level} below the "
                    f"anchor; db.compact({level!r}) folds them)"
                )
        return index, None

    def _plan_order(self, bound: BoundQuery,
                    override: Optional[SortMethod]) -> Optional[OrderPlan]:
        """Decide how the query's ORDER BY / LIMIT executes."""
        if not bound.is_ordered:
            if override is not None:
                raise PlanError(
                    f"order method {override.value!r} given but the "
                    f"statement has no ORDER BY / LIMIT"
                )
            return None
        if not bound.order_by or bound.limit == 0:
            # no sort key (or nothing survives the LIMIT): plain slice.
            # A forced method other than truncate would be silently
            # ignored -- reject it like any other unusable override.
            if override is not None and override is not SortMethod.TRUNCATE:
                raise PlanError(
                    f"order method {override.value!r} is not usable "
                    f"for this query (no rows to sort)"
                )
            return OrderPlan(keys=bound.order_by,
                             method=SortMethod.TRUNCATE,
                             limit=bound.limit, offset=bound.offset)
        if bound.is_aggregate:
            positions = tuple(bound.group_by.index(item.column)
                              for item in bound.order_by)
            aid_position = None
        elif bound.distinct:
            # dedup precedes the sort; keys are projected values and
            # the index-order path (the anchor-id consumer) is out
            positions = tuple(bound.projections.index(item.column)
                              for item in bound.order_by)
            aid_position = None
        else:
            positions = tuple(bound.projections.index(item.column)
                              for item in bound.order_by)
            aid_position = next(
                i for i, col in enumerate(bound.projections)
                if col.table == bound.anchor and col.column.is_id
            )
        index, gate_note = self._order_index(bound)
        report = self.cost_model.estimate_order(bound, index,
                                                index_note=gate_note)
        if override is not None:
            chosen = next((c for c in report.candidates
                           if c.method is override), None)
            if chosen is None or chosen.infeasible:
                note = chosen.note if chosen else "(not a candidate)"
                raise PlanError(
                    f"order method {override.value!r} is not usable for "
                    f"this query {note}"
                )
        else:
            chosen = min(report.candidates,
                         key=lambda c: (c.infeasible, c.total_us,
                                        c.ram_peak))
            if chosen.infeasible:
                # fail at plan time with a clear message instead of
                # letting the executor die on RamExhausted mid-sort
                reasons = "; ".join(
                    f"{c.method.value} {c.note}".strip()
                    for c in report.candidates
                )
                raise PlanError(
                    f"no ordering method fits this token's secure RAM: "
                    f"{reasons}"
                )
        chosen.chosen = True
        key = bound.order_by[0].column
        return OrderPlan(
            keys=bound.order_by, method=chosen.method,
            limit=bound.limit, offset=bound.offset,
            key_positions=positions, aid_position=aid_position,
            index_table=(key.table if chosen.method is
                         SortMethod.INDEX_ORDER else None),
            index_column=(key.column.name if chosen.method is
                          SortMethod.INDEX_ORDER else None),
            report=report,
        )

    # ------------------------------------------------------------------
    def plan(self, bound: BoundQuery,
             vis_strategy: StrategyLike = None,
             cross: Optional[bool] = None,
             projection: Union[str, ProjectionMode] = ProjectionMode.PROJECT,
             order_method: SortMethodLike = None,
             ) -> QueryPlan:
        """Decide strategies for every table carrying visible selections.

        ``vis_strategy``/``cross`` force one choice for all tables (the
        paper's experiments do this); ``None`` means cost-based: every
        candidate assignment is priced by the cost model and the
        cheapest wins.  The losing candidates ride along on the plan's
        :attr:`~repro.core.plan.QueryPlan.cost_report` for ``EXPLAIN``.
        ``order_method`` similarly forces how an ORDER BY / LIMIT
        executes (external-sort / top-k-heap / index-order); ``None``
        lets the cost model pick.
        """
        override = (None if vis_strategy is None
                    else coerce(VisStrategy, vis_strategy, "strategy"))
        mode = coerce(ProjectionMode, projection, "projection mode")
        method = (None if order_method is None
                  else coerce(SortMethod, order_method, "order method"))
        vis_plans: Dict[str, VisPlan] = {}
        tables_with_vis = self._vis_tables(bound)
        free_tables = [t for t in tables_with_vis if t != bound.anchor]

        report: Optional[CostReport] = None
        chosen: Dict[str, Choice] = {}
        if override is None and free_tables:
            report = self._optimize(bound, free_tables, cross, mode)
            chosen = dict(report.chosen.assignment)

        for table in tables_with_vis:
            cross_ok = self._cross_available(bound, table)
            if table == bound.anchor:
                # anchor Vis IDs are anchor IDs already: plain merge
                # input.  Cost-based plans skip the redundant anchor
                # Cross pass (Merge intersects the same sublists anyway);
                # explicit ``cross=True`` keeps it for the paper's
                # fixed-strategy experiments.
                if override is not None:
                    use_cross = (cross_ok if cross is None
                                 else (cross and cross_ok))
                else:
                    use_cross = bool(cross) and cross_ok
                vis_plans[table] = VisPlan(table, VisStrategy.PRE,
                                           use_cross)
                continue
            if override is not None:
                use_cross = (cross_ok if cross is None
                             else (cross and cross_ok))
                vis_plans[table] = VisPlan(table, override, use_cross)
                continue
            choice = chosen[table]
            vis_plans[table] = VisPlan(table, choice.strategy,
                                       choice.cross)
        self.plans_built += 1
        return QueryPlan(
            bound=bound, vis_plans=vis_plans, projection_mode=mode,
            order=self._plan_order(bound, method),
            cost_report=report,
        )
