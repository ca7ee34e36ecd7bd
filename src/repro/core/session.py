"""Query-service layer: prepared statements, plan caching, batching.

Production-style workloads pose the same query template thousands of
times; lexing, binding and planning it anew on every call would be
wasted host work.  This module is the reusable infrastructure every
SELECT of ``GhostDB.execute()`` runs through:

* :class:`PreparedStatement` -- bind once, execute many.  ``?``
  placeholders in predicates are substituted per execution; the plan
  (per-table Vis strategies, projection mode) is computed once and
  reused via :meth:`QueryPlan.with_bound`.
* :class:`PlanCache` -- an LRU cache of :class:`QueryPlan` objects
  keyed on the *normalized* SQL text plus the strategy knobs, so
  whitespace or keyword-case variants of one query share a plan;
  entries go stale per table, through the data/stats generations.
* :class:`Session` -- one client's view of a :class:`GhostDB` (or of a
  fleet: the session asks its database to plan and to run): its own
  plan cache and the batched execution path :meth:`Session.query_many`,
  which amortizes the planner's selectivity probes and the
  Secure -> Untrusted round trips (query announcements and Vis
  requests are shipped in batch messages) across a whole batch and
  aggregates one :class:`QueryStats` per batch.

Everything here stays on the public side of the trust boundary: a
prepared statement's parameters are part of the user's query, which
GhostDB's security argument already assumes public.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.core.executor import CostWindow, QueryResult, QueryStats
from repro.core.operators import vis_request, vis_tables
from repro.core.plan import (ProjectionMode, QueryPlan, SortMethod,
                             VisStrategy)
from repro.core.planner import SortMethodLike, StrategyLike, coerce
from repro.errors import GhostDBError
from repro.sql.binder import BoundQuery
from repro.sql.lexer import normalize_sql
from repro.untrusted.server import VisRequest, VisResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ghostdb import GhostDB

#: how many Vis requests ride in one prefetch round trip
VIS_BATCH_SIZE = 64

#: cache key: (normalized sql, strategy, cross, projection, order method)
PlanKey = Tuple[str, Optional[str], Optional[bool], str, Optional[str]]


def plan_key(sql: str, vis_strategy: StrategyLike, cross: Optional[bool],
             projection: Union[str, ProjectionMode],
             order_method: SortMethodLike = None) -> PlanKey:
    """Cache key for one (statement, strategy-knobs) combination."""
    return (
        normalize_sql(sql),
        None if vis_strategy is None
        else coerce(VisStrategy, vis_strategy, "strategy").value,
        cross,
        coerce(ProjectionMode, projection, "projection mode").value,
        None if order_method is None
        else coerce(SortMethod, order_method, "order method").value,
    )


#: per-table ``(data, stats)`` generation pairs a cached plan was
#: computed against
GenSnapshot = Tuple[Tuple[str, Tuple[int, int]], ...]


class PlanCache:
    """A bounded LRU cache of query plans with hit/miss accounting.

    Entries carry the per-table *(data, stats) generations* they were
    planned against.  A lookup that passes the current generations
    drops (and counts as a miss) any entry whose tables have since
    been mutated by DML or whose statistics were refreshed -- so an
    INSERT into ``Patients`` invalidates only plans touching
    ``Patients``, never a cached ``Doctors``-only plan, and a stats
    change that could flip a cost-based strategy choice invalidates
    exactly like a data change.  Compaction relies on the same
    mechanism: it bumps the generations of the tables whose DML it
    folded instead of flushing the cache globally.
    """

    def __init__(self, capacity: int = 64):
        if capacity <= 0:
            raise ValueError("plan cache capacity must be positive")
        self.capacity = capacity
        self._plans: "OrderedDict[PlanKey, Tuple[QueryPlan, GenSnapshot]]" \
            = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale_drops = 0

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: PlanKey) -> bool:
        return key in self._plans

    def get(self, key: PlanKey,
            current_gens: Optional[Dict[str, int]] = None
            ) -> Optional[QueryPlan]:
        entry = self._plans.get(key)
        if entry is None:
            self.misses += 1
            return None
        plan, gens = entry
        if current_gens is not None and any(
                current_gens.get(table, gen) != gen
                for table, gen in gens):
            # a table this plan touches was mutated since planning
            del self._plans[key]
            self.stale_drops += 1
            self.misses += 1
            return None
        self._plans.move_to_end(key)
        self.hits += 1
        return plan

    def put(self, key: PlanKey, plan: QueryPlan,
            gens: GenSnapshot = ()) -> None:
        self._plans[key] = (plan, gens)
        self._plans.move_to_end(key)
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self.evictions += 1


class PreparedStatement:
    """One bound statement: plan once, execute with fresh parameters.

    Obtained from :meth:`Session.prepare` (or ``GhostDB.prepare``).
    ``?`` placeholders are numbered left to right; :meth:`execute`
    takes one value per placeholder.
    """

    def __init__(self, session: "Session", sql: str,
                 vis_strategy: StrategyLike = None,
                 cross: Optional[bool] = None,
                 projection: Union[str, ProjectionMode] = "project",
                 order_method: SortMethodLike = None,
                 parsed=None):
        self.session = session
        self.sql = sql
        self._knobs = (vis_strategy, cross, projection, order_method)
        self._key = plan_key(sql, *self._knobs)
        db = session.db
        db.require_built()
        self.template: BoundQuery = db.bind(sql, parsed)
        self.executions = 0

    @property
    def param_count(self) -> int:
        return self.template.param_count

    # ------------------------------------------------------------------
    def plan_for(self, bound: BoundQuery) -> QueryPlan:
        """The template plan, from the session cache or planned fresh."""
        return self._cached_plan(bound)

    def _cached_plan(self, bound: BoundQuery):
        db = self.session.db
        cache = self.session.plan_cache
        plan = cache.get(self._key, db.table_generations)
        if plan is None:
            plan = db.plan_bound(bound, *self._knobs)
            cache.put(self._key, plan, db.generations_for(bound.tables))
        return plan

    def execute(self, params: Sequence = ()) -> QueryResult:
        """Run once with ``params`` substituted for the placeholders."""
        bound = self.template.substitute(tuple(params))
        plan = self.plan_for(bound).with_bound(bound)
        self.executions += 1
        return self.session.db.execute_plan(plan)

    def execute_many(self, param_sets: Sequence[Sequence]
                     ) -> "BatchResult":
        """Run the template once per parameter set, batched.

        See :meth:`Session.query_many` for the amortizations applied.
        """
        return self.session._run_template_batch(self, param_sets)


@dataclass
class BatchResult:
    """Results and aggregated costs of one batched execution.

    ``stats`` covers the whole batch window -- including the shared
    planning probes and prefetch transfers that no single query owns --
    so ``stats.total_s`` is what the batch really cost the token.
    """

    results: List[QueryResult]
    stats: QueryStats
    plans_computed: int     # planner invocations during the batch
    cache_hits: int         # plan-cache hits during the batch

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[QueryResult]:
        return iter(self.results)

    def __getitem__(self, i: int) -> QueryResult:
        return self.results[i]


class Session:
    """One client's prepared statements and plan cache over a GhostDB.

    Sessions are cheap; a server would hold one per connection.  All
    sessions share the database's token and Untrusted engine -- only
    the caching layer is per-session.
    """

    def __init__(self, db: "GhostDB"):
        db.require_built()
        self.db = db
        self.plan_cache = PlanCache()
        # bound templates are schema-derived (data-independent), so
        # this cache survives DML and compaction
        self._statements: "OrderedDict[PlanKey, PreparedStatement]" = \
            OrderedDict()

    # ------------------------------------------------------------------
    def prepare(self, sql: str,
                vis_strategy: StrategyLike = None,
                cross: Optional[bool] = None,
                projection: Union[str, ProjectionMode] = "project",
                order_method: SortMethodLike = None,
                parsed=None) -> PreparedStatement:
        """Bind ``sql`` (which may contain ``?`` placeholders) once."""
        return self.db.statement_cls(self, sql, vis_strategy, cross,
                                     projection, order_method, parsed)

    def query(self, sql: str, params: Optional[Sequence] = None,
              vis_strategy: StrategyLike = None,
              cross: Optional[bool] = None,
              projection: Union[str, ProjectionMode] = "project",
              order_method: SortMethodLike = None,
              parsed=None) -> QueryResult:
        """Run one SELECT through the session's plan cache.

        ``parsed`` lets callers that already parsed the statement
        (``GhostDB.execute``) skip the re-parse; every call reuses a
        cached bound template, so a hot loop re-binds nothing.
        """
        stmt = self._statement(sql, vis_strategy, cross, projection,
                               order_method, parsed)
        return stmt.execute(params if params is not None else ())

    def _statement(self, sql: str, vis_strategy: StrategyLike,
                   cross: Optional[bool],
                   projection: Union[str, ProjectionMode],
                   order_method: SortMethodLike = None,
                   parsed=None) -> PreparedStatement:
        """The session's cached prepared statement for ``sql``."""
        key = plan_key(sql, vis_strategy, cross, projection, order_method)
        stmt = self._statements.get(key)
        if stmt is None:
            stmt = self.prepare(sql, vis_strategy, cross, projection,
                                order_method, parsed)
            self._statements[key] = stmt
            while len(self._statements) > self.plan_cache.capacity:
                self._statements.popitem(last=False)
        return stmt

    def query_many(self,
                   sql: Union[str, Sequence[str]],
                   param_sets: Optional[Sequence[Sequence]] = None,
                   vis_strategy: StrategyLike = None,
                   cross: Optional[bool] = None,
                   projection: Union[str, ProjectionMode] = "project",
                   order_method: SortMethodLike = None) -> BatchResult:
        """Execute a batch of queries with amortized round trips.

        Two shapes are accepted:

        * ``query_many(template_sql, param_sets)`` -- one parameterized
          template executed once per parameter set (planned at most
          once);
        * ``query_many([sql1, sql2, ...])`` -- heterogeneous statements,
          each planned through the session's plan cache.

        In both shapes the batch sends one combined query announcement,
        prefetches all Vis requests in :data:`VIS_BATCH_SIZE` chunks
        (one round trip per chunk instead of one per request), and
        returns per-query results plus one aggregated
        :class:`QueryStats` for the batch.
        """
        if isinstance(sql, str):
            stmt = self.prepare(sql, vis_strategy, cross, projection,
                                order_method)
            if param_sets is None:
                param_sets = [()]
            return self._run_template_batch(stmt, param_sets)
        if param_sets is not None:
            raise GhostDBError(
                "param_sets requires a single SQL template, not a list "
                "of statements"
            )
        return self._run_sql_batch(list(sql), vis_strategy, cross,
                                   projection, order_method)

    # ------------------------------------------------------------------
    # the service layer's read: one turn on the token
    # ------------------------------------------------------------------
    def execute_pinned(self, stmt: PreparedStatement, bound: BoundQuery
                       ) -> Tuple[QueryResult, Dict[str, Tuple[int, int]]]:
        """Pin, plan, execute; returns the result and the per-table
        ``(data, stats)`` generations of every table it read.

        The service runs this as one job on the token's lane, on the
        event loop and without yielding it, so no write can move a
        generation between the pin and the last page read: the
        returned map *is* the state the rows came from.
        """
        gens = self.db.table_generations
        pinned = {t: gens[t] for t in bound.tables}
        plan = stmt.plan_for(bound).with_bound(bound)
        stmt.executions += 1
        return self.db.execute_plan(plan), pinned

    # ------------------------------------------------------------------
    # batched execution
    # ------------------------------------------------------------------
    def _run_template_batch(self, stmt: PreparedStatement,
                            param_sets: Sequence[Sequence]
                            ) -> BatchResult:
        window = self._open_window()
        param_sets = [tuple(p) for p in param_sets]
        if not param_sets:
            return BatchResult([], QueryStats.parallel(()), 0, 0)
        bounds = [stmt.template.substitute(p) for p in param_sets]
        plan = stmt.plan_for(bounds[0])
        plans = [plan.with_bound(b) for b in bounds]
        # one audited message carries the template and every value set
        nbytes = max(1, len(stmt.sql)) + 8 * stmt.param_count * len(bounds)
        self._announce_batch(nbytes, len(plans), stmt.sql)
        stmt.executions += len(plans)
        return self._execute_plans(plans, window)

    def _run_sql_batch(self, sqls: List[str],
                       vis_strategy: StrategyLike, cross: Optional[bool],
                       projection: Union[str, ProjectionMode],
                       order_method: SortMethodLike) -> BatchResult:
        window = self._open_window()
        if not sqls:
            return BatchResult([], QueryStats.parallel(()), 0, 0)
        plans = []
        for sql in sqls:
            stmt = self._statement(sql, vis_strategy, cross, projection,
                                   order_method)
            # () fails the bind check when the text has ? placeholders
            bound = stmt.template.substitute(())
            plans.append(stmt.plan_for(bound).with_bound(bound))
        nbytes = sum(max(1, len(s)) for s in sqls)
        self._announce_batch(nbytes, len(plans), sqls[0])
        return self._execute_plans(plans, window)

    # ------------------------------------------------------------------
    def _open_window(self) -> Tuple[CostWindow, int, int]:
        """Open the batch's cost window (plus the planner/cache marks).

        A batch amortizes round trips on *one* token's channel and Vis
        server (a fleet's session refuses here).
        """
        db = self.db
        return (CostWindow(db.token), db.planner.plans_built,
                self.plan_cache.hits)

    def _announce_batch(self, nbytes: int, n: int, head_sql: str) -> None:
        """The batch's query texts leave Secure in a single message."""
        with self.db.token.label("Vis"):
            self.db.vis_server.announce(f"batch[{n}] {head_sql[:60]}",
                                        nbytes=nbytes)

    def _prefetch_vis(self, plans: Sequence[QueryPlan]
                      ) -> List[Dict[str, VisResult]]:
        """Download every plan's Vis request set in batched round trips.

        Identical requests (same table, predicate values and columns --
        common when parameter sets repeat) are deduplicated and
        downloaded once; each execution's context is seeded with its
        share, so it asks Untrusted nothing more.
        """
        wanted: List[Dict[str, VisRequest]] = []
        unique: "OrderedDict[VisRequest, Optional[VisResult]]" = \
            OrderedDict()
        for plan in plans:
            per_plan = {table: vis_request(plan.bound, table)
                        for table in vis_tables(plan.bound)}
            for request in per_plan.values():
                unique.setdefault(request, None)
            wanted.append(per_plan)
        requests = list(unique)
        server = self.db.vis_server
        with self.db.token.label("Vis"):
            for start in range(0, len(requests), VIS_BATCH_SIZE):
                chunk = requests[start:start + VIS_BATCH_SIZE]
                for request, result in zip(chunk,
                                           server.vis_batch(chunk)):
                    unique[request] = result
        return [
            {table: unique[request] for table, request in per_plan.items()}
            for per_plan in wanted
        ]

    def _execute_plans(self, plans: List[QueryPlan],
                       window: Tuple) -> BatchResult:
        db = self.db
        results = [
            db.execute_plan(plan, announce=False, vis_seed=seed)
            for plan, seed in zip(plans, self._prefetch_vis(plans))
        ]
        cost, plans0, hits0 = window
        stats = cost.stats(sum(len(r.rows) for r in results))
        # each query ran in its own RAM window; the batch peak is the
        # largest of them
        stats.ram_peak = max(r.stats.ram_peak for r in results)
        return BatchResult(
            results=results, stats=stats,
            plans_computed=db.planner.plans_built - plans0,
            cache_hits=self.plan_cache.hits - hits0,
        )
