"""``ShardedGhostDB``: N independent tokens behind the GhostDB API.

``ShardedGhostDB(N)`` builds N identical tokens (a plain ``GhostDB()``
is the one-token shape), and every statement kind keeps its
single-token semantics:

* **DDL** broadcasts to every shard (identical schemas everywhere).
* **Loading** routes root rows by hashed global id and replicates
  everything else; ``build()`` provisions each shard's token.
* **SELECT** scatters when the query touches the root (each shard
  plans its own fragment against its own statistics, executes the
  ordinary QEPSJ + projection pipeline, pre-sorts under a rewritten
  per-shard :class:`~repro.core.plan.OrderPlan` when there is one) and
  the gather merges the streams back into exactly the row sequence a
  single token would produce.  Root-free SELECTs run whole on one
  deterministically chosen shard.
* **DML** gives every target shard its part of the statement (a root
  insert's rows by the same hash, everything else whole) and runs the
  token's own two steps fleet-wide: check on every target, and only
  then apply on every target -- the single token's all-or-nothing
  behaviour.
* **Compaction** stays per-shard.  Compacting the root renumbers
  global ids exactly like a single token would (survivor rank in old
  global order) by rebuilding the router's local->global maps.

Simulated time models the shards as real parallel hardware: a fleet
statement costs ``max(per-shard time) + gather merge``, while bytes,
counters and per-operator work sum (see
:meth:`~repro.core.executor.QueryStats.parallel`).
"""

from __future__ import annotations

import dataclasses
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.core.aggregate import apply_aggregates
from repro.core.compaction import (VERDICTS, CompactionAdvice,
                                   CompactionProgress,
                                   TableCompactionStatus, check_max_steps)
from repro.core.dml import DmlResult
from repro.core.executor import QueryResult, QueryStats
from repro.core.ghostdb import GhostDB, StatementFrontEnd
from repro.core.plan import (OrderPlan, ProjectionMode, QueryPlan,
                             SortMethod)
from repro.core.planner import (SortMethodLike, StrategyLike,
                                scatter_order)
from repro.core.recovery import RecoveryReport
from repro.core.reference import ReferenceEngine
from repro.core.session import PreparedStatement, Session
from repro.core.sort import dedup_rows, strip_internal_columns
from repro.errors import (CompactionDeclined, GhostDBError, ShardDown,
                          ShardUnavailable)
from repro.hardware.token import TokenConfig
from repro.schema.model import Table
from repro.shard import gather
from repro.shard.router import ShardRouter
from repro.sql.binder import (BoundDelete, BoundInsert, BoundQuery,
                              with_anchor_id_tail)


@dataclasses.dataclass
class FleetQueryPlan:
    """One planned fleet statement: per-shard plans plus gather recipe."""

    #: the oracle-shaped bound query (what a single token would bind)
    bound: BoundQuery
    #: True: fragments on every shard; False: whole query on one shard
    scatter: bool
    #: per-shard fragment plans (scatter) or the single routed plan
    shard_plans: List[QueryPlan]
    #: home shard of a non-scattered plan
    shard_id: Optional[int] = None
    #: ``bound`` extended with the anchor-id tail fragments carry
    scatter_bound: Optional[BoundQuery] = None
    #: projection position of the anchor id (the merge key)
    aid_pos: int = 0
    #: how many columns :func:`with_anchor_id_tail` appended (0 or 1)
    n_added: int = 0
    #: positions of root-id projection columns needing local->global
    #: translation (always includes ``aid_pos``)
    trans_positions: Tuple[int, ...] = ()
    #: the *global* ordering step the gather applies (oracle's plan)
    gather_order: Optional[OrderPlan] = None
    #: True when shards pre-sort and the gather merges by sort key
    order_pushdown: bool = False
    #: the planner's estimate of the gather: rows merged, seconds
    est_gather_rows: int = 0
    est_gather_s: float = 0.0

    def with_bound(self, bound: BoundQuery) -> "FleetQueryPlan":
        """Re-target every fragment at a parameter-substituted bound."""
        if bound is self.bound:
            return self
        if not self.scatter:
            return dataclasses.replace(
                self, bound=bound,
                shard_plans=[self.shard_plans[0].with_bound(bound)],
            )
        scatter_bound = dataclasses.replace(
            bound,
            projections=self.scatter_bound.projections,
            internal_tail=self.scatter_bound.internal_tail,
        )
        return dataclasses.replace(
            self, bound=bound, scatter_bound=scatter_bound,
            shard_plans=[p.with_bound(scatter_bound)
                         for p in self.shard_plans],
        )

    def describe(self) -> str:
        if not self.scatter:
            return (f"fleet: route whole query to shard "
                    f"{self.shard_id} (anchor {self.bound.anchor!r} "
                    f"is replicated)\n"
                    + self.shard_plans[0].describe())
        lines = [f"fleet: scatter over {len(self.shard_plans)} shards, "
                 f"gather merge by {self.bound.anchor}.id"]
        if self.order_pushdown:
            lines.append("gather: per-shard pre-sort + k-way heap "
                         "merge by (sort key, anchor id)")
        elif self.gather_order is not None:
            lines.append("gather: global "
                         + self.gather_order.describe())
        for k, plan in enumerate(self.shard_plans):
            lines.append(f"-- shard {k} --")
            lines.append(plan.describe())
        lines.append(f"gather merge: ~{self.est_gather_rows} rows x "
                     f"{len(self.scatter_bound.projections)} cols est -> "
                     f"{self.est_gather_s * 1e3:.3f} ms")
        return "\n".join(lines)


class FleetPreparedStatement(PreparedStatement):
    """Prepared statement over the fleet (plan once per shard set).

    Shares everything with the single-token statement; the two methods
    are defined here (not inherited) so outside-in tracers can tell a
    fleet statement from the per-shard work nested inside it.
    """

    def plan_for(self, bound: BoundQuery) -> FleetQueryPlan:
        return self._current_plan(bound)

    def execute(self, params: Sequence = ()) -> QueryResult:
        return super().execute(params)


class FleetSession(Session):
    """A session over the fleet: prepared statements and plan cache,
    but no batched path -- a batch amortizes *one* token's channel."""

    def _open_window(self):
        raise GhostDBError(
            "batched execution (query_many) runs on a "
            "single token; execute fleet statements one by one"
        )


class ShardedGhostDB(StatementFrontEnd):
    """N GhostDB shards behind the single-database statement API.

    The statement surface (``execute`` / ``prepare`` / ``session`` /
    ``plan_query`` / ``explain`` / ``load``) is the shared
    :class:`~repro.core.ghostdb.StatementFrontEnd`; this class supplies
    its hooks -- ``register_table`` (broadcast), ``_queue_rows`` (route
    root rows), ``run_dml`` (check everywhere, then apply everywhere),
    ``plan_bound`` (scatter or route), ``execute_plan``
    (scatter-gather), ``table_generations`` (summed), ``ram_capacity``
    (summed), ``session_cls`` (no batched path) -- and the
    fleet-only operations.  To this class a shard is a ``GhostDB`` and
    nothing more: every per-shard step is one of its public operations.
    """

    session_cls = FleetSession
    statement_cls = FleetPreparedStatement

    def __init__(self, n_shards: int,
                 config: Optional[TokenConfig] = None,
                 indexed_columns: Optional[Dict[str, Sequence[str]]] = None):
        super().__init__()
        if n_shards < 2:
            raise ValueError(
                "ShardedGhostDB needs shards >= 2; use GhostDB() for "
                "a single token"
            )
        self.n_shards = n_shards
        self.shards: List[GhostDB] = [
            GhostDB(config=config, indexed_columns=indexed_columns)
            for _ in range(n_shards)
        ]
        self.router = ShardRouter(n_shards)
        #: per-shard monotone local root id -> global root id
        self._root_maps: List[List[int]] = [[] for _ in self.shards]
        self._next_root_gid = 0
        #: optional :class:`repro.faults.fleet.FleetFaults` injector
        self.faults = None
        #: shards this fleet has observed dead (degraded mode)
        self._down: set = set()

    def _map(self, op: Callable[[GhostDB], Any]) -> List[Any]:
        """``op(shard)`` for every shard, in shard order: the fleet's
        one fan-out.  A read-only fleet operation is this plus a way
        to combine the answers."""
        return [op(shard) for shard in self.shards]

    # ------------------------------------------------------------------
    # degraded-fleet plumbing
    # ------------------------------------------------------------------
    def _touch_shard(self, k: int) -> None:
        """One statement-level touch of shard ``k``.

        Raises :class:`ShardUnavailable` when the shard is already
        known dead, or when the fault injector kills it at this touch
        (in which case the death is remembered -- the fleet degrades).

        The touch rule, for every statement kind: probe every target
        shard before the statement does anything, then touch a shard
        again right before each step it executes -- a fragment, a
        charged DML check, a DML apply.
        """
        if k in self._down:
            raise ShardUnavailable(
                f"shard {k} is down; statement rejected (degraded fleet)"
            )
        if self.faults is not None:
            try:
                self.faults.check(k)
            except ShardDown as exc:
                self._down.add(k)
                raise ShardUnavailable(
                    f"shard {k} failed mid-statement: {exc}"
                ) from exc

    def _next_live_shard(self, k: int) -> int:
        """First live shard after ``k`` (wrapping); for rerouting
        root-free statements away from a dead shard."""
        for step in range(1, self.n_shards):
            candidate = (k + step) % self.n_shards
            if candidate not in self._down:
                try:
                    self._touch_shard(candidate)
                except ShardUnavailable:
                    continue
                return candidate
        raise ShardUnavailable("no live shard left in the fleet")

    def fleet_health(self) -> Dict[int, Dict[str, object]]:
        """Per-shard health probe: ``{shard: {"up": bool, ...}}``.

        Non-destructive -- probing does not advance the fault
        schedule's touch counter.  Live shards also report their
        per-table generations so a caller can verify the replicas
        agree after recovery.
        """
        out: Dict[int, Dict[str, object]] = {}
        for k, shard in enumerate(self.shards):
            up = k not in self._down and (
                self.faults is None or self.faults.is_up(k))
            entry: Dict[str, object] = {"up": up}
            if up and shard.catalog is not None:
                entry["generations"] = dict(shard.table_generations)
            out[k] = entry
        return out

    def recover(self) -> Dict[int, RecoveryReport]:
        """Recover every reachable shard; returns per-shard reports.

        Shards the fault schedule still marks dead are skipped (a dead
        token cannot be recovered until it is revived); every other
        shard runs the single-token recovery scan and leaves the
        degraded set.
        """
        reports: Dict[int, RecoveryReport] = {}
        for k, shard in enumerate(self.shards):
            if self.faults is not None and not self.faults.is_up(k):
                continue
            reports[k] = shard.recover()
            self._down.discard(k)
        return reports

    # ------------------------------------------------------------------
    # pass-through schema plumbing
    # ------------------------------------------------------------------
    @property
    def schema(self):
        return self.shards[0].schema

    @property
    def binder(self):
        return self.shards[0].binder

    @property
    def root(self) -> str:
        return self.schema.root

    def finalize_schema(self) -> None:
        self._map(GhostDB.finalize_schema)

    @property
    def _built(self) -> bool:
        return self.shards[0].catalog is not None

    @property
    def ram_capacity(self) -> int:
        """The shards' secure RAM, summed: a fleet statement's turn
        holds every shard."""
        return sum(self._map(lambda shard: shard.ram_capacity))

    @property
    def table_generations(self) -> Dict[str, Tuple[int, int]]:
        """Per-table generations, summed across shards.

        Sums change whenever *any* shard's generation moves, so plan-
        cache staleness and the generations service responses report
        work unchanged -- including for root inserts that touch only
        one shard.
        """
        per_shard = self._map(lambda shard: shard.table_generations)
        return {
            t: (sum(g[t][0] for g in per_shard),
                sum(g[t][1] for g in per_shard))
            for t in per_shard[0]
        }

    # ------------------------------------------------------------------
    # loading and building
    # ------------------------------------------------------------------
    def register_table(self, table: Table) -> None:
        self._map(lambda shard: shard.register_table(table))

    def _queue_rows(self, table: str, rows: Sequence[Tuple]) -> None:
        if table != self.root:
            self._map(lambda shard: shard.load(table, rows))
            return
        for k, shard_rows in self._route_root_rows(rows).items():
            self.shards[k].load(table, shard_rows)
        self._adopt_root_rows(len(rows))

    def _route_root_rows(self, rows: Sequence[Tuple]
                         ) -> Dict[int, List[Tuple]]:
        """``{home shard: its rows, in order}`` for root rows that will
        take the next global ids (ascending shard order)."""
        homes = [self.router.shard_of(self._next_root_gid + i)
                 for i in range(len(rows))]
        return {k: [row for row, home in zip(rows, homes) if home == k]
                for k in sorted(set(homes))}

    def _adopt_root_rows(self, n: int) -> None:
        """Hand the next ``n`` global ids to the root rows the shards
        just took in (:meth:`_route_root_rows` order)."""
        for gid in range(self._next_root_gid, self._next_root_gid + n):
            self._root_maps[self.router.shard_of(gid)].append(gid)
        self._next_root_gid += n

    def build(self) -> None:
        """Provision every shard's token (costs start from zero)."""
        self._map(GhostDB.build)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan_bound(self, bound: BoundQuery,
                   vis_strategy: StrategyLike = None,
                   cross: Optional[bool] = None,
                   projection: Union[str, ProjectionMode] = "project",
                   order_method: SortMethodLike = None,
                   ) -> FleetQueryPlan:
        """Plan one SELECT across the fleet.

        A query whose table set avoids the root reads only replicated
        data: it routes whole to one statement-hashed shard and its
        answer (rows *and* simulated costs) matches a single token's
        bit for bit.  Everything else scatters.
        """
        if self.root not in bound.tables:
            k = self.router.shard_for_statement(bound.sql)
            plan = self.shards[k].plan_bound(
                bound, vis_strategy, cross, projection, order_method)
            return FleetQueryPlan(
                bound=bound, scatter=False, shard_plans=[plan],
                shard_id=k,
            )
        scatter_bound, aid_pos, n_added = with_anchor_id_tail(
            bound, self.schema)
        trans_positions = tuple(
            i for i, col in enumerate(scatter_bound.projections)
            if col.table == self.root and col.is_id
        )
        shard_plans = self._map(lambda shard: shard.plan_bound(
            scatter_bound, vis_strategy, cross, projection, order_method))
        gather_order = shard_plans[0].order
        pushdown = (gather_order is not None
                    and not bound.is_aggregate and not bound.distinct)
        rewritten: List[QueryPlan] = []
        for plan in shard_plans:
            if not pushdown:
                # aggregation / DISTINCT precede ordering: the shard
                # must not sort (and must not slice) anything
                plan = dataclasses.replace(plan, order=None)
            else:
                order = scatter_order(plan.order)
                if order.method is SortMethod.INDEX_ORDER and \
                        order.index_table != bound.anchor:
                    # a non-anchor index realizes (key, child id,
                    # anchor id) order; the gather merge needs streams
                    # in (key, anchor id) order, so fall back to the
                    # external sort (same output order on one shard)
                    order = dataclasses.replace(
                        order, method=SortMethod.EXTERNAL,
                        index_table=None, index_column=None)
                plan = dataclasses.replace(plan, order=order)
            rewritten.append(plan)
        # the gather is priced from each shard's own cardinality
        # estimate, whatever strategy was chosen or forced
        est_rows = sum(self._map(lambda shard: max(1, round(
            shard.planner.cost_model.estimate_result_rows(scatter_bound)))))
        return FleetQueryPlan(
            bound=bound, scatter=True, shard_plans=rewritten,
            scatter_bound=scatter_bound,
            aid_pos=aid_pos, n_added=n_added,
            trans_positions=trans_positions,
            gather_order=gather_order, order_pushdown=pushdown,
            est_gather_rows=est_rows,
            est_gather_s=self._merge_cost_s(
                est_rows, len(scatter_bound.projections)),
        )

    def _merge_cost_s(self, n_rows: int, n_cols: int) -> float:
        return gather.merge_cost_s(
            n_rows, n_cols, self.n_shards,
            self.shards[0].token.channel.throughput_mbps)

    def _analyze_plan(self, plan: FleetQueryPlan) -> List[str]:
        """EXPLAIN ANALYZE: execute the fleet plan once and report the
        measured makespan per shard."""
        result = self.execute_plan(plan)
        per_shard = ", ".join(
            f"shard{k}={s.total_s:.6f}s"
            for k, s in enumerate(result.shard_stats))
        return [f"measured: fleet {result.stats.total_s:.6f}s "
                f"({per_shard})"]

    # ------------------------------------------------------------------
    # scatter-gather execution
    # ------------------------------------------------------------------
    def execute_plan(self, plan: FleetQueryPlan, *,
                     announce: bool = True) -> QueryResult:
        """Run one fleet plan: route it whole, or scatter and gather."""
        if not plan.scatter:
            k = plan.shard_id
            try:
                self._touch_shard(k)
            except ShardUnavailable:
                # Root-free plans read replicated tables, so any live
                # shard answers identically: degrade, don't fail.
                k = self._next_live_shard(k)
            result = self.shards[k].execute_plan(
                plan.shard_plans[0], announce=announce)
            result = QueryResult(columns=result.columns,
                                 rows=result.rows,
                                 stats=result.stats, plan=plan)
            result.shard_stats = [result.stats]
            return result
        # A scatter needs every shard, so a token dying mid-scatter
        # fails the statement cleanly (reads have no on-token side
        # effects to undo) and names the shard.
        for k in range(self.n_shards):
            self._touch_shard(k)
        frags = []
        for k, shard in enumerate(self.shards):
            self._touch_shard(k)
            frags.append(shard.execute_fragment(plan.shard_plans[k],
                                                announce=announce))
        streams = [
            gather.translate_rows(frag.rows, plan.trans_positions, id_map)
            for frag, id_map in zip(frags, self._root_maps)
        ]
        names, rows = self._gather(plan, frags[0].columns, streams)
        merge_s = self._merge_cost_s(
            sum(len(s) for s in streams),
            len(plan.scatter_bound.projections))
        stats = QueryStats.parallel(
            [f.stats for f in frags], merge_s=merge_s,
            result_rows=len(rows))
        result = QueryResult(columns=names, rows=rows, stats=stats,
                             plan=plan)
        result.shard_stats = [f.stats for f in frags]
        return result

    def _gather(self, plan: FleetQueryPlan, names: List[str],
                streams: List[gather.Rows]
                ) -> Tuple[List[str], List[Tuple]]:
        """The global finishing stages, in single-token order."""
        bound = plan.bound
        if bound.is_aggregate:
            merged = gather.merge_by_anchor(streams, plan.aid_pos)
            if plan.n_added:
                merged = [row[:len(bound.projections)] for row in merged]
            names, rows = apply_aggregates(bound, bound.projections,
                                           merged)
            return names, gather.finish_order(rows, plan.gather_order)
        if bound.distinct:
            merged = gather.merge_by_anchor(streams, plan.aid_pos)
            if plan.n_added:
                merged = [row[:len(bound.projections)] for row in merged]
                names = names[:len(bound.projections)]
            rows = dedup_rows(merged)
            return names, gather.finish_order(rows, plan.gather_order)
        if plan.order_pushdown and plan.gather_order.keys \
                and plan.gather_order.method is not SortMethod.TRUNCATE:
            rows = gather.merge_ordered(streams, plan.gather_order,
                                        plan.aid_pos)
        else:
            rows = gather.merge_by_anchor(streams, plan.aid_pos)
            if plan.gather_order is not None:
                rows = gather.window(rows, plan.gather_order)
        return strip_internal_columns(plan.scatter_bound, names, rows)

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def run_dml(self, bound: Union[BoundInsert, BoundDelete]
                ) -> DmlResult:
        """The fleet's one write path: the token's two steps, each run
        on every target shard before the next begins.

        A root INSERT's rows go to their home shards; every other
        statement runs whole on every shard.  Every target is probed,
        then *every* target checks (charged, nothing mutated) -- a
        refusal only one shard can see (a RESTRICT violation in its
        slice of the root) surfaces after the round, so what each
        channel carries is a function of the statement, not of which
        shard refused.  Only then does any shard apply, under its undo
        journal: when a later shard fails or dies, the shards already
        written roll back before the error surfaces.
        """
        root_insert = (isinstance(bound, BoundInsert)
                       and bound.table == self.root)
        if root_insert:
            parts = {k: dataclasses.replace(bound, rows=tuple(rows))
                     for k, rows in
                     self._route_root_rows(bound.rows).items()}
        else:
            parts = dict.fromkeys(range(self.n_shards), bound)
        targets = list(parts)
        for k in targets:
            self._touch_shard(k)
        checked, refusal = [], None
        for k in targets:
            self._touch_shard(k)
            try:
                checked.append(self.shards[k].check_dml(parts[k]))
            except GhostDBError as exc:
                refusal = refusal or exc
        if refusal is not None:
            raise refusal
        results: List[DmlResult] = []
        try:
            for k, check in zip(targets, checked):
                self._touch_shard(k)
                results.append(self.shards[k].apply_dml(check))
        except GhostDBError:
            for k in reversed(targets[:len(results)]):
                self.shards[k].undo_last_dml()
            raise
        if root_insert:
            self._adopt_root_rows(len(bound.rows))
        # the root is partitioned, everything else replicated
        affected = (sum(r.rows_affected for r in results)
                    if bound.table == self.root
                    else results[0].rows_affected)
        return DmlResult(
            statement=results[0].statement, table=bound.table,
            rows_affected=affected,
            stats=QueryStats.parallel([r.stats for r in results],
                                      result_rows=affected))

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self, table: str, max_steps: Optional[int] = None
                ) -> CompactionProgress:
        """Compact ``table`` on every shard.

        Replicated tables compact in the usual bounded steps (each
        shard folds the identical debt).  The *root* runs to
        completion in one call instead: folding root tombstones
        renumbers global ids (survivor rank in old global order,
        matching the single token), and the fleet must never be
        caught between shards with half the ids renumbered.  For the
        same reason every shard's advisor is consulted up front -- one
        shard declining after another folded would leave exactly that
        torn state, so the fleet declines as a whole first.
        """
        check_max_steps(max_steps)
        # every shard must be reachable before any shard folds a page:
        # a token dying mid-preflight declines the whole compaction
        for k in range(self.n_shards):
            self._touch_shard(k)
        if table != self.root:
            return _combine_progress(self._map(
                lambda shard: shard.compact(table, max_steps)))
        report = self.compaction_advice(table)
        if not report.ok:
            raise CompactionDeclined(
                f"compact({table}): advisor verdict {report.verdict!r} "
                f"on at least one shard ({report.describe()}); the "
                f"fleet declines as a whole (root id renumbering is "
                f"all-or-nothing)"
            )
        old_tombstones = self._map(
            lambda shard: set(shard.catalog.tombstones[table]))
        progs = self._map(lambda shard: shard.compact(table))
        self._rebuild_root_maps(old_tombstones)
        return _combine_progress(progs)

    def _rebuild_root_maps(self,
                           old_tombstones: List[set]) -> None:
        """Renumber global root ids after the root's tombstones fold.

        Survivors keep their relative order and take dense new ids by
        rank -- the same remap a single token's compaction applies --
        and each shard's map stays monotone because ranking preserves
        order within a shard.
        """
        survivors: List[Tuple[int, int]] = []   # (old gid, shard)
        for k, id_map in enumerate(self._root_maps):
            dead = old_tombstones[k]
            survivors.extend(
                (gid, k) for local, gid in enumerate(id_map)
                if local not in dead
            )
        survivors.sort()
        new_maps: List[List[int]] = [[] for _ in self.shards]
        for new_gid, (_, k) in enumerate(survivors):
            new_maps[k].append(new_gid)
        self._root_maps = new_maps
        self._next_root_gid = len(survivors)

    def compaction_advice(self, table: str) -> CompactionAdvice:
        """The worst shard's advisor report on folding ``table``."""
        return _worst_advice(self._map(
            lambda shard: shard.compaction_advice(table)))

    def compaction_status(self) -> Dict[str, TableCompactionStatus]:
        """Per-table compaction debt across the fleet.

        Replicated tables carry identical debt on every shard, so
        shard 0 speaks for them; the root is partitioned, so its debt
        is combined (:func:`_combine_root_status`).
        """
        per_shard = self._map(GhostDB.compaction_status)
        status = dict(per_shard[0])
        status[self.root] = _combine_root_status(
            [s[self.root] for s in per_shard])
        return status

    # ------------------------------------------------------------------
    # statistics, audit, reports
    # ------------------------------------------------------------------
    def analyze(self) -> Dict[int, Dict[str, Dict]]:
        return dict(enumerate(self._map(GhostDB.analyze)))

    def statistics(self) -> Dict[int, Dict[str, Dict]]:
        return dict(enumerate(self._map(GhostDB.statistics)))

    def storage_report(self) -> Dict[str, int]:
        """Flash bytes per component family, summed over the fleet."""
        combined: Dict[str, int] = {}
        for report in self._map(GhostDB.storage_report):
            for key, value in report.items():
                combined[key] = combined.get(key, 0) + value
        return combined

    def audit_outbound(self) -> Dict[int, list]:
        """Per-channel audit logs: one independent log per shard."""
        return dict(enumerate(self._map(GhostDB.audit_outbound)))

    def set_throughput(self, mbps: float) -> None:
        self._map(lambda shard: shard.set_throughput(mbps))

    # ------------------------------------------------------------------
    # oracle
    # ------------------------------------------------------------------
    def reference_query(self, sql: str) -> Tuple[List[str], List[Tuple]]:
        """Ground truth over the reconstructed *global* state."""
        self.require_built()
        bound = self.binder.bind_sql(sql)
        raw_rows, tombstones = self._global_state()
        engine = ReferenceEngine(self.schema, raw_rows, tombstones)
        return engine.execute(bound)

    def _global_state(self):
        """Reassemble global raw rows/tombstones from the shards.

        Root rows land at their global ids via the router maps; all
        other tables (and all foreign keys, which only ever reference
        replicated tables) carry global ids natively on every shard.
        """
        root = self.root
        rows: List[Optional[Tuple]] = [None] * self._next_root_gid
        dead = set()
        for shard, id_map in zip(self.shards, self._root_maps):
            raw = shard.catalog.raw_rows[root]
            tombs = shard.catalog.tombstones[root]
            for local, gid in enumerate(id_map):
                rows[gid] = raw[local]
                if local in tombs:
                    dead.add(gid)
        raw_rows = {root: rows}
        tombstones = {root: dead}
        shard0 = self.shards[0]
        for table in self.schema.tables:
            if table == root:
                continue
            raw_rows[table] = list(shard0.catalog.raw_rows[table])
            tombstones[table] = set(shard0.catalog.tombstones[table])
        return raw_rows, tombstones

    # ------------------------------------------------------------------
    # durable fleet image
    # ------------------------------------------------------------------
    def snapshot(self, path: str) -> Dict[str, int]:
        """Write the whole fleet -- every shard and the coordinator
        state -- as one image file at ``path``, by one atomic rename;
        refuses while any shard has a compaction job in flight.
        ``GhostDB.restore`` reads it back."""
        from repro.persist.image import snapshot_db
        return {**snapshot_db(self, path), "shards": self.n_shards}

    def __getstate__(self) -> Dict[str, Any]:
        """The image form: shards, router, root maps, the global-id
        counter and the idempotency ledger.  Sessions belong to their
        clients, and the fault injector and the degraded set to the
        running fleet."""
        return {**self.__dict__, "_default_session": None,
                "faults": None, "_down": set()}


def _worst_advice(reports: List[CompactionAdvice]) -> CompactionAdvice:
    """The report with the severest verdict (the first shard's among
    equals) -- for the root, one reluctant shard speaks for the fleet."""
    return max(reports, key=lambda r: VERDICTS.index(r.verdict))


def _combine_root_status(per_shard: List[TableCompactionStatus]
                         ) -> TableCompactionStatus:
    """The partitioned root's debt: volumes sum over the shards, it is
    dirty when any slice is, and the advisor answers with the worst
    verdict -- the all-or-nothing rule ``compact`` applies to the root."""
    summed = {name: sum(getattr(s, name) for s in per_shard)
              for name in ("tombstones", "tombstone_log_bytes",
                           "delta_entries", "delta_log_bytes",
                           "fk_delta_edges")}
    return dataclasses.replace(
        per_shard[0], dirty=any(s.dirty for s in per_shard),
        advisor=_worst_advice([s.advisor for s in per_shard]), **summed)


def _combine_progress(progs: List[CompactionProgress]
                      ) -> CompactionProgress:
    """One fleet-level progress view over per-shard compaction runs."""
    states = {p.state for p in progs}
    if states == {"clean"}:
        state = "clean"
    elif "in-progress" in states:
        state = "in-progress"
    else:
        state = "done"
    in_flight = next((p for p in progs if p.state == "in-progress"),
                     progs[0])
    return dataclasses.replace(
        progs[0],
        state=state,
        steps_run=max(p.steps_run for p in progs),
        phase=in_flight.phase if state == "in-progress" else "",
        restarts=max(p.restarts for p in progs),
        pages_rewritten=sum(p.pages_rewritten for p in progs),
        max_step_us=max(p.max_step_us for p in progs),
        last_step_us=progs[-1].last_step_us,
    )
