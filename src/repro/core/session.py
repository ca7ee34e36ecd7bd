"""Query-service layer: prepared statements, plan caching, batching.

Production-style workloads pose the same query template thousands of
times; lexing, binding and planning it anew on every call would be
wasted host work.  This module is the reusable infrastructure every
SELECT of ``GhostDB.execute()`` runs through:

* :class:`PreparedStatement` -- bind once, execute many.  ``?``
  placeholders in predicates are substituted per execution; the
  statement owns its plan (per-table Vis strategies, projection mode),
  computed once and reused via :meth:`QueryPlan.with_bound` until a
  table it reads moves a data/stats generation.
* :class:`PlanCache` -- the session's one LRU of prepared statements,
  keyed on the *normalized* SQL text plus the strategy knobs, so
  whitespace or keyword-case variants of one query share a statement
  (bound once, announced under the first text) and its plan; it counts
  the plan lookups (hits, misses, stale drops, evictions).
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

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple, Union)

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


#: per-table ``(data, stats)`` generation pairs a plan was made against
GenSnapshot = Tuple[Tuple[str, Tuple[int, int]], ...]


class PlanCache:
    """A session's prepared statements: one bounded LRU keyed by
    :func:`plan_key`, with the plan-lookup accounting.

    The LRU numbers each statement it takes in (``stmt.id``, the wire's
    handle); :meth:`by_id` finds it until it is evicted.

    Each :class:`PreparedStatement` owns its plan and the per-table
    *(data, stats) generations* that plan was made against; a lookup
    that finds one of them moved re-plans (a miss, counted in
    ``stale_drops`` too).  So an INSERT into ``Patients`` re-plans
    only statements touching ``Patients``, never a ``Doctors``-only
    one, and a stats refresh that could flip a cost-based strategy
    choice re-plans exactly like a data change.  Compaction relies on
    the same mechanism: it bumps the generations of the tables whose
    DML it folded instead of flushing anything globally.  Every plan
    lookup makes its statement the most recently used; past
    ``capacity`` the least recently used one is evicted (a caller
    still holding it keeps a working statement).
    """

    def __init__(self, capacity: int = 64):
        if capacity <= 0:
            raise ValueError("plan cache capacity must be positive")
        self.capacity = capacity
        self._lru: "OrderedDict[PlanKey, PreparedStatement]" = \
            OrderedDict()
        self._ids = itertools.count(1)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale_drops = 0

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: PlanKey) -> bool:
        return key in self._lru

    def statement(self, key: PlanKey,
                  make: Callable[[], "PreparedStatement"]
                  ) -> "PreparedStatement":
        """The statement cached under ``key``; on a miss, ``make()``'s,
        cached as the most recent entry."""
        stmt = self._lru.get(key)
        if stmt is None:
            stmt = self._lru[key] = make()
            stmt.id = next(self._ids)
            while len(self._lru) > self.capacity:
                self._lru.popitem(last=False)
                self.evictions += 1
        return stmt

    def by_id(self, stmt_id: object) -> Optional["PreparedStatement"]:
        """The cached statement numbered ``stmt_id``, else ``None``."""
        return next((s for s in self._lru.values() if s.id == stmt_id),
                    None)

    def touch(self, stmt: "PreparedStatement") -> None:
        """Make ``stmt`` the most recent entry, if it is still cached."""
        if self._lru.get(stmt.key) is stmt:
            self._lru.move_to_end(stmt.key)


class PreparedStatement:
    """One bound statement: plan once, execute with fresh parameters.

    Obtained from :meth:`Session.prepare` (or ``GhostDB.prepare``),
    which hands out one statement per :func:`plan_key`.  ``?``
    placeholders are numbered left to right; :meth:`execute` takes one
    value per placeholder.  The statement owns its plan: made at the
    first execution, re-targeted at every later binding
    (:meth:`QueryPlan.with_bound`), re-made when a table it reads moved
    a generation.
    """

    def __init__(self, session: "Session", key: PlanKey, sql: str):
        self.session = session
        self.key = key
        self.sql = sql
        self.template: BoundQuery = session.db.bind(sql)
        #: the session's number for it, set when its cache takes it in
        self.id = 0
        self.executions = 0
        self._plan: Optional[QueryPlan] = None
        self._gens: GenSnapshot = ()

    @property
    def param_count(self) -> int:
        return self.template.param_count

    # ------------------------------------------------------------------
    def plan_for(self, bound: BoundQuery) -> QueryPlan:
        """The statement's plan, made afresh for ``bound`` when it has
        none or a generation it was made against moved."""
        return self._current_plan(bound)

    def _current_plan(self, bound: BoundQuery) -> QueryPlan:
        db = self.session.db
        cache = self.session.plan_cache
        gens = db.table_generations
        if self._plan is not None and all(gens.get(table, gen) == gen
                                          for table, gen in self._gens):
            cache.hits += 1
        else:
            if self._plan is not None:     # a table it reads moved
                cache.stale_drops += 1
            cache.misses += 1
            # the key's tail is the strategy knobs, coerced
            self._plan = db.plan_bound(bound, *self.key[1:])
            gens = db.table_generations
            self._gens = tuple(sorted((t, gens[t]) for t in bound.tables))
        cache.touch(self)
        return self._plan

    def _plans(self, bounds: Sequence[BoundQuery]) -> List[QueryPlan]:
        """One plan lookup, re-targeted at each of ``bounds`` (one
        execution each): the step every execution path shares."""
        plan = self.plan_for(bounds[0])
        self.executions += len(bounds)
        return [plan.with_bound(b) for b in bounds]

    def execute(self, params: Sequence = ()) -> QueryResult:
        """Run once with ``params`` substituted for the placeholders."""
        plan, = self._plans([self.template.substitute(tuple(params))])
        return self.session.db.execute_plan(plan)


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

    # ------------------------------------------------------------------
    def prepare(self, sql: str,
                vis_strategy: StrategyLike = None,
                cross: Optional[bool] = None,
                projection: Union[str, ProjectionMode] = "project",
                order_method: SortMethodLike = None) -> PreparedStatement:
        """The session's statement for ``sql`` (which may contain ``?``
        placeholders): bound on first use, then served from the plan
        cache, so a text that normalizes alike -- same knobs -- gets
        the same statement (and announces the first text).

        A cached text is lexed once (its key) and never parsed.
        """
        key = plan_key(sql, vis_strategy, cross, projection, order_method)
        return self.plan_cache.statement(
            key, lambda: self.db.statement_cls(self, key, sql))

    def query(self, sql: str, params: Optional[Sequence] = None,
              vis_strategy: StrategyLike = None,
              cross: Optional[bool] = None,
              projection: Union[str, ProjectionMode] = "project",
              order_method: SortMethodLike = None) -> QueryResult:
        """Run one SELECT through the session's cached statement."""
        stmt = self.prepare(sql, vis_strategy, cross, projection,
                            order_method)
        return stmt.execute(params if params is not None else ())

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
        plan, = stmt._plans([bound])
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
        plans = stmt._plans(bounds)
        # one audited message carries the template and every value set
        nbytes = max(1, len(stmt.sql)) + 8 * stmt.param_count * len(bounds)
        self._announce_batch(nbytes, len(plans), stmt.sql)
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
            stmt = self.prepare(sql, vis_strategy, cross, projection,
                                order_method)
            # () fails the bind check when the text has ? placeholders
            plans += stmt._plans([stmt.template.substitute(())])
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
        unique: Dict[VisRequest, Optional[VisResult]] = {}
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
