"""GhostDB public facade.

Every statement goes through one entry point, ``db.execute()``::

    from repro import GhostDB

    db = GhostDB()
    db.execute("CREATE TABLE Doctors (id int, specialty char(20), "
               "name char(20) HIDDEN)")
    db.execute("CREATE TABLE Patients (id int, "
               "did int HIDDEN REFERENCES Doctors, age int, "
               "bodymassindex float HIDDEN)")
    db.execute("INSERT INTO Doctors VALUES ('Psychiatrist', 'Freud')")
    db.execute("INSERT INTO Patients VALUES (0, 51, 27.5)")
    db.build()
    result = db.execute("SELECT Patients.id FROM Patients, Doctors "
                        "WHERE Patients.did = Doctors.id "
                        "AND Doctors.specialty = 'Psychiatrist' "
                        "AND Patients.bodymassindex > 25")
    print(result.rows, result.stats.total_s)

    # the database stays alive after build(): incremental DML appends
    # to the flash-resident structures, no rebuild required
    db.execute("INSERT INTO Patients VALUES (0, 44, 31.0)")
    db.execute("DELETE FROM Patients WHERE bodymassindex > 30")

``execute()`` routes, binds and dispatches any supported statement --
``CREATE TABLE``, ``INSERT INTO``, ``DELETE FROM`` and ``SELECT`` --
and takes ``?`` placeholders via ``params``.  SELECTs run through the
default session's plan cache; DML returns a
:class:`~repro.core.dml.DmlResult` whose cost scales with the
appended/affected rows, not the table size.  ``execute()`` is the one
statement entry point.

Repeated query templates should go through the prepared-statement
layer, which plans once and substitutes parameters per execution::

    stmt = db.prepare("SELECT Patients.id FROM Patients, Doctors "
                      "WHERE Patients.did = Doctors.id "
                      "AND Doctors.specialty = ? "
                      "AND Patients.bodymassindex > ?")
    result = stmt.execute(("Psychiatrist", 25))
    batch = db.query_many(stmt.sql,
                          [("Psychiatrist", 25), ("Dentist", 30)])
    print(batch.stats.total_s, batch.plans_computed)

Everything hidden stays on the simulated secure token; the only bytes
that ever leave it are statement texts (with INSERTed hidden values
masked), Vis requests, and the visible halves of inserted rows --
verifiable via ``db.audit_outbound()``.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import (Dict, Iterator, List, Optional, Sequence, Tuple,
                    Union)

from repro.core.aggregate import apply_aggregates, effective_projections
from repro.core.catalog import SecureCatalog
from repro.core.compaction import (CompactionAdvice, CompactionManager,
                                   CompactionProgress,
                                   TableCompactionStatus, advise)
from repro.core.dml import CheckedDml, DmlExecutor, DmlResult
from repro.core.executor import CostWindow, QepSjExecutor, QueryResult
from repro.core.loader import Loader
from repro.core.operators import ExecContext
from repro.core.plan import ProjectionMode, QueryPlan, VisPlan
from repro.core.planner import Planner, SortMethodLike, StrategyLike
from repro.core.project import ProjectionExecutor
from repro.core.recovery import (IdempotencyLedger, RecoveryReport,
                                 StatementJournal)
from repro.core.reference import ReferenceEngine
from repro.core.session import BatchResult, PreparedStatement, Session
from repro.core.sort import (OrderByExecutor, dedup_rows, sort_projections,
                             strip_internal_columns)
from repro.errors import (BindError, GhostDBError, ImageError, PowerLoss,
                          SchemaError)
from repro.hardware.token import SecureToken, TokenConfig
from repro.schema.ddl import table_from_ast
from repro.schema.model import Schema, Table
from repro.sql import ast
from repro.sql.binder import Binder, BoundDelete, BoundInsert
from repro.sql.lexer import leading_keyword
from repro.sql.parser import parse
from repro.untrusted.engine import UntrustedEngine
from repro.untrusted.server import VisServer


class StatementFrontEnd:
    """The statement surface one token and a fleet of tokens share.

    Parse, kind checks, bind, parameter substitution, dispatch,
    sessions and prepared statements exist once, here.  A database
    class supplies only the hooks that differ between one token and N:

    * ``register_table(table)`` -- record one ``CREATE TABLE``;
    * ``_queue_rows(table, rows)`` -- queue pre-``build()`` rows;
    * ``run_dml(bound)`` -- apply one bound INSERT or DELETE;
    * ``plan_bound(bound, *knobs)`` -- plan one bound SELECT;
    * ``execute_plan(plan, announce=...)`` -- run one plan;
    * ``_analyze_plan(plan)`` -- the executing half of EXPLAIN ANALYZE;
    * ``table_generations`` -- the per-table ``(data, stats)`` map plan
      caches compare against and service reads report;
    * ``ram_capacity`` -- the secure RAM one statement's turn holds;
    * ``schema``, ``binder``, ``_built``, ``finalize_schema()`` --
      the schema state behind all of the above.
    """

    #: what :meth:`session` hands out over this database
    session_cls = Session
    #: what :meth:`Session.prepare` hands out over this database
    statement_cls = PreparedStatement

    def __init__(self):
        self._default_session: Optional[Session] = None
        # exactly-once DML: each service write records its response
        # here under the client's idempotency key (persisted in
        # snapshots)
        self.ikeys = IdempotencyLedger()

    def require_built(self) -> None:
        if not self._built:
            raise GhostDBError("call build() before querying")

    # ------------------------------------------------------------------
    # the unified statement entry point
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Optional[Sequence] = None,
                vis_strategy: StrategyLike = None,
                cross: Optional[bool] = None,
                projection: Union[str, ProjectionMode] = "project",
                order_method: SortMethodLike = None,
                ) -> Union[QueryResult, DmlResult, None]:
        """Execute one SQL statement of any supported kind.

        * ``CREATE TABLE`` registers a table (before any rows exist);
          returns ``None``.
        * ``INSERT INTO`` before :meth:`build` queues rows for the bulk
          load (returns ``None``); after :meth:`build` it appends
          incrementally to every flash-resident structure and returns a
          :class:`DmlResult` whose cost scales with the appended bytes.
        * ``DELETE FROM`` tombstones matching rows (after ``build()``)
          and returns a :class:`DmlResult`.
        * ``SELECT`` runs through the default session's plan cache and
          returns a :class:`QueryResult`; the strategy knobs
          (``vis_strategy``/``cross``/``projection``) apply here.

        ``?`` placeholders anywhere a literal is allowed are filled
        from ``params``.  A SELECT goes to the session as text (parsed
        only on a cache miss); any other statement is parsed here, once.
        """
        if leading_keyword(sql) == "SELECT":
            self.require_built()
            return self._session_default().query(
                sql, params, vis_strategy, cross, projection, order_method)
        parsed = parse(sql)
        if order_method is not None:
            # a forced ordering method on a statement that cannot sort
            # must raise, never be silently dropped
            raise BindError(
                f"order_method {order_method!r} applies to SELECT "
                f"statements only"
            )
        if isinstance(parsed, ast.CreateTable):
            if params:
                raise BindError("DDL statements take no parameters")
            self.register_table(table_from_ast(parsed))
            return None
        self.finalize_schema()
        if isinstance(parsed, ast.InsertStatement):
            bound = self.binder.bind_insert(parsed, sql) \
                .substitute(tuple(params or ()))
            if not self._built:
                # before build(): inserts ride the bulk provisioning path
                self._queue_rows(bound.table, bound.rows)
                return None
            return self.run_dml(bound)
        # a DELETE: the parser yields nothing else for a non-SELECT
        self.require_built()
        return self.run_dml(self.binder.bind_delete(parsed, sql)
                            .substitute(tuple(params or ())))

    def load(self, table: str, rows: Sequence[Tuple]) -> None:
        """Queue rows for ``table`` (data columns only; ids are dense)."""
        self.finalize_schema()
        if self._built:
            raise SchemaError("database already built")
        self._queue_rows(table, rows)

    # ------------------------------------------------------------------
    # binding and planning
    # ------------------------------------------------------------------
    def bind(self, sql: str):
        """Bind the SELECT ``sql``, normalizing aggregate projections
        and appending the ordering step's internal sort columns."""
        bound = self.binder.bind_sql(sql)
        if bound.is_aggregate:
            bound = dataclasses.replace(
                bound, projections=effective_projections(bound)
            )
        return sort_projections(bound, self.schema)

    def plan_query(self, sql: str,
                   vis_strategy: StrategyLike = None,
                   cross: Optional[bool] = None,
                   projection: Union[str, ProjectionMode] = "project",
                   order_method: SortMethodLike = None):
        """Bind and plan without executing."""
        self.require_built()
        bound = self.bind(sql)
        bound.require_bound()
        return self.plan_bound(bound, vis_strategy, cross, projection,
                               order_method)

    def explain(self, sql: str, analyze: bool = False, **kwargs) -> str:
        """Human-readable plan description.

        Cost-based plans (no ``vis_strategy`` override) include every
        candidate assignment with its estimated simulated time, channel
        bytes and secure-RAM peak; a scattered fleet plan shows each
        shard's plan and the priced gather merge.  ``analyze=True``
        additionally *executes* -- one token runs each candidate and
        reports the measured simulated time next to the estimate (the
        estimated-vs-measured view of the optimizer's decision
        surface), a fleet runs its plan once and reports the per-shard
        makespans -- and appends the compaction debt of the touched
        tables.  (Analyze runs really charge the token's ledger; use it
        as a tuning tool, not on a hot path.)
        """
        plan = self.plan_query(sql, **kwargs)
        # measured first: the description prints what analysis recorded
        measured = self._analyze_plan(plan) if analyze else []
        lines = [plan.describe(), *measured]
        if analyze:
            # the maintenance counters a DBA would want next to the
            # measured numbers: what compaction debt the touched tables
            # carry and what the advisor would say about folding it
            status = self.compaction_status()
            lines.append("compaction status:")
            lines += [f"  {status[t].describe()}"
                      for t in sorted(plan.bound.tables)]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # sessions and prepared statements
    # ------------------------------------------------------------------
    def session(self) -> Session:
        """A new session (own plan cache) over this database."""
        return self.session_cls(self)

    def _session_default(self) -> Session:
        if self._default_session is None:
            self._default_session = self.session()
        return self._default_session

    def prepare(self, sql: str,
                vis_strategy: StrategyLike = None,
                cross: Optional[bool] = None,
                projection: Union[str, ProjectionMode] = "project",
                order_method: SortMethodLike = None,
                ) -> PreparedStatement:
        """Bind ``sql`` once for repeated execution.

        ``?`` placeholders in predicates are substituted per call of
        :meth:`PreparedStatement.execute`; the plan is computed on the
        first execution and reused (one planner invocation per
        template, not per query).  Returns the default session's
        cached statement for the text -- create a dedicated
        :meth:`session` for isolation.
        """
        self.require_built()
        return self._session_default().prepare(sql, vis_strategy, cross,
                                               projection, order_method)


class GhostDB(StatementFrontEnd):
    """A GhostDB instance: one secure token plus one Untrusted engine.

    N independent tokens behind the same statement API are a
    :class:`~repro.shard.fleet.ShardedGhostDB` (see :mod:`repro.shard`).
    """

    def __init__(self, config: Optional[TokenConfig] = None,
                 indexed_columns: Optional[Dict[str, Sequence[str]]] = None):
        super().__init__()
        self.token = SecureToken(config)
        self._ddl_tables: List[Table] = []
        self._indexed_columns = indexed_columns
        self.schema: Optional[Schema] = None
        self.untrusted: Optional[UntrustedEngine] = None
        self.catalog: Optional[SecureCatalog] = None
        self._loader: Optional[Loader] = None
        self.binder: Optional[Binder] = None
        self.vis_server: Optional[VisServer] = None
        self.planner: Optional[Planner] = None
        self._reference: Optional[ReferenceEngine] = None
        self._dml: Optional[DmlExecutor] = None
        self._compactor: Optional[CompactionManager] = None
        # the last statement's undo journal: armed (uncommitted) when a
        # DML crashed mid-flight, committed otherwise -- recover()
        # rolls back the former, the fleet's abort path the latter
        self._journal: Optional[StatementJournal] = None

    # ------------------------------------------------------------------
    # statement hooks (see StatementFrontEnd)
    # ------------------------------------------------------------------
    def check_dml(self, bound: Union[BoundInsert, BoundDelete]
                  ) -> CheckedDml:
        """Step one of a DML statement: open its cost window and run
        every check that can refuse it; nothing is mutated.

        The check is a read and fails like one (:meth:`_read_scope`).
        A fleet runs this step on every target shard before any shard
        runs :meth:`apply_dml`.
        """
        cost = CostWindow(self.token)
        with self._read_scope(cost):
            return CheckedDml(bound, cost, self._dml.check(bound))

    def apply_dml(self, checked: CheckedDml) -> DmlResult:
        """Step two: mutate what :meth:`check_dml` resolved.

        A :class:`StatementJournal` is armed around the mutation: if
        the statement dies mid-flight (power loss, out of space) the
        journal stays uncommitted and :meth:`recover` rolls the token
        back to its pre-statement state; on success the committed
        journal is kept until the next statement so a fleet-level abort
        can still undo this shard (:meth:`undo_last_dml`).
        """
        bound, cost = checked.bound, checked.cost
        with StatementJournal(self, bound), cost.ram_window():
            if isinstance(bound, BoundInsert):
                statement = "insert"
                affected = self._dml.insert(bound, checked.resolved)
            else:
                statement = "delete"
                affected = self._dml.delete(bound, checked.resolved)
        return DmlResult(statement=statement, table=bound.table,
                         rows_affected=affected,
                         stats=cost.stats(affected))

    def run_dml(self, bound: Union[BoundInsert, BoundDelete]
                ) -> DmlResult:
        """One DML statement: check, then apply, in one cost window."""
        return self.apply_dml(self.check_dml(bound))

    def plan_bound(self, bound, vis_strategy: StrategyLike = None,
                   cross: Optional[bool] = None,
                   projection: Union[str, ProjectionMode] = "project",
                   order_method: SortMethodLike = None) -> QueryPlan:
        return self.planner.plan(bound, vis_strategy, cross, projection,
                                 order_method)

    def _queue_rows(self, table: str, rows: Sequence[Tuple]) -> None:
        self._loader.add_rows(table, rows)

    @property
    def _built(self) -> bool:
        return self.catalog is not None

    @property
    def ram_capacity(self) -> int:
        """The token's secure RAM, in bytes."""
        return self.token.ram.capacity

    # ------------------------------------------------------------------
    # schema definition and loading
    # ------------------------------------------------------------------
    def register_table(self, table: Table) -> None:
        if self.schema is not None:
            raise SchemaError("schema already finalized (rows were loaded)")
        self._ddl_tables.append(table)

    def finalize_schema(self) -> None:
        if self.schema is None:
            if not self._ddl_tables:
                raise SchemaError("no tables declared")
            self.schema = Schema(self._ddl_tables)
            self.untrusted = UntrustedEngine(self.schema)
            self._loader = Loader(self.schema, self.token, self.untrusted,
                                  self._indexed_columns)
            self.binder = Binder(self.schema)

    def build(self) -> None:
        """Build hidden images, SKTs and climbing indexes on the token.

        Loading happens over a secure provisioning channel, so the cost
        ledger is reset afterwards: query costs start from zero.
        """
        self.finalize_schema()
        if self.catalog is not None:
            raise SchemaError("database already built")
        self.catalog = self._loader.build()
        self._wire_engines()
        self.token.reset_costs()

    def _wire_engines(self) -> None:
        """(Re)create the engines that live on top of one catalog."""
        self.vis_server = VisServer(self.untrusted, self.token)
        self.planner = Planner(self.catalog)
        self._reference = ReferenceEngine(self.schema,
                                          self.catalog.raw_rows,
                                          self.catalog.tombstones)
        self._dml = DmlExecutor(self.schema, self.token, self.catalog,
                                self.vis_server, self.planner)
        # fresh manager per catalog: any half-done compaction of a
        # previous catalog died with that catalog's token image
        self._compactor = CompactionManager(self)

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def _analyze_plan(self, plan: QueryPlan) -> List[str]:
        """EXPLAIN ANALYZE: execute every feasible candidate of a
        cost-based plan and record its measured stats beside the
        estimate (``describe()`` prints both, and per operator label
        under the chosen candidate)."""
        if plan.cost_report is not None:
            for cand in plan.cost_report.candidates:
                if cand.estimate.infeasible:
                    continue   # the executor would exhaust secure RAM
                trial = dataclasses.replace(
                    plan,
                    vis_plans={
                        **plan.vis_plans,
                        **{t: VisPlan(t, c.strategy, c.cross)
                           for t, c in cand.assignment},
                    },
                    cost_report=None,
                )
                cand.measured = self.execute_plan(trial).stats
        return []

    def execute_plan(self, plan: QueryPlan, *, announce: bool = True,
                     vis_seed: Optional[Dict] = None) -> QueryResult:
        """Run an already-planned query and collect its cost report.

        ``announce=False`` skips the per-query transmission of the
        query text (the batched path announces a whole batch in one
        message); ``vis_seed`` hands the execution context the
        ``{table: VisResult}`` answers a batched prefetch already
        downloaded.
        """
        return self._run_plan(plan, announce, vis_seed, finish=True)

    def execute_fragment(self, plan: QueryPlan, *,
                         announce: bool = True) -> QueryResult:
        """Run one *shard fragment* of a scattered query.

        Like :meth:`execute_plan` but without the global finishing
        stages -- no aggregation, no DISTINCT dedup, no internal-column
        stripping: those are whole-result operations the gather side
        applies once, over the merged stream.  The fragment's ordering
        step *does* run when the plan carries one (a scatter-rewritten
        :class:`~repro.core.plan.OrderPlan`: per-shard pre-sort /
        top-(offset+limit), charged to this token's RAM and flash like
        any sort).  Rows keep the full projection list -- including the
        anchor-id tail the gather merges by -- and the cost window is
        accounted identically to a standalone query.
        """
        return self._run_plan(plan, announce, None, finish=False)

    @contextmanager
    def _read_scope(self, cost: CostWindow) -> Iterator[None]:
        """The RAM window of one SELECT, made harmless on failure.

        A statement that raises mid-pipeline abandons its operators
        where they stood, page buffers and half-written temporaries
        included.  Before a :class:`GhostDBError` leaves, all of them
        are handed back, so the next statement finds the token as this
        one found it.  :class:`PowerLoss` is exempt: the dead NAND
        refuses the frees, and its contract is :meth:`recover`.
        """
        store = self.token.store
        mark = store.temp_mark()
        with cost.ram_window() as window:
            try:
                yield
            except GhostDBError as exc:
                if not isinstance(exc, PowerLoss):
                    window.free_all()
                    store.free_temps_since(mark)
                raise

    def _run_plan(self, plan: QueryPlan, announce: bool,
                  vis_seed: Optional[Dict], finish: bool) -> QueryResult:
        """QEPSJ + projection (+ ordering) inside one cost window;
        ``finish`` adds the whole-result stages a fragment leaves to
        the gather: aggregation / DISTINCT and internal-column strip."""
        self.require_built()
        bound = plan.bound
        cost = CostWindow(self.token)
        with self._read_scope(cost):
            if announce:
                # the query text itself is the one thing Secure reveals
                # (each shard's channel carries its own audited copy of
                # it: the no-leak invariant stays checkable per channel)
                with self.token.label("Vis"):
                    self.vis_server.announce(bound.sql)
            ctx = ExecContext(self.token, self.catalog, self.vis_server,
                              bound)
            if vis_seed:
                for table, result in vis_seed.items():
                    ctx.seed_vis(table, result)
            sj = QepSjExecutor(ctx).execute(plan)
            try:
                names, rows = ProjectionExecutor(ctx).execute(
                    sj, plan.projection_mode
                )
            finally:
                sj.free()
            if finish:
                if bound.is_aggregate:
                    names, rows = apply_aggregates(
                        bound, bound.projections, rows)
                elif bound.distinct:
                    rows = dedup_rows(rows)
            if plan.order is not None:
                rows = OrderByExecutor(ctx, plan.order).execute(rows)
        if finish:
            names, rows = strip_internal_columns(bound, names, rows)
        return QueryResult(columns=names, rows=rows,
                           stats=cost.stats(len(rows)), plan=plan)

    # ------------------------------------------------------------------
    # generations, batched execution
    # ------------------------------------------------------------------
    @property
    def table_generations(self) -> Dict[str, Tuple[int, int]]:
        """Per-table ``(data, stats)`` generations.

        The data generation bumps on INSERT/DELETE, the stats
        generation whenever the table's sketches change (DML or
        :meth:`analyze`).  Session plan caches compare cached entries
        against this map, so DML -- and statistics refreshes, which can
        flip a cost-based strategy choice -- invalidate only plans
        touching the mutated table.
        """
        if self.catalog is None:
            return {}
        return {
            t: (self.catalog.data_generations[t],
                self.catalog.stats_generations[t])
            for t in self.schema.tables
        }

    def query_many(self,
                   sql: Union[str, Sequence[str]],
                   param_sets: Optional[Sequence[Sequence]] = None,
                   **kwargs) -> BatchResult:
        """Batched execution through the default session.

        ``query_many(template, param_sets)`` executes one parameterized
        template per parameter set; ``query_many([sql, ...])`` runs
        heterogeneous statements.  Planner probes, query announcements
        and Vis downloads are amortized across the batch; the returned
        :class:`BatchResult` carries per-query results plus one
        aggregated :class:`QueryStats`.
        """
        self.require_built()
        return self._session_default().query_many(sql, param_sets,
                                                  **kwargs)

    def compact(self, table: str, max_steps: Optional[int] = None
                ) -> CompactionProgress:
        """Incrementally compact one table, in bounded steps.

        Folds the table's accumulated DML debt -- tombstones, climbing-
        index delta logs, subtree fk deltas -- back into densely built
        structures *without* stopping the world: each step copies at
        most ``PAGES_PER_STEP`` flash pages (or folds one climbing
        index), all writes go to shadow files, and queries issued
        between steps read the untouched old image.  Call with
        ``max_steps`` to bound a maintenance slice and call again later
        to continue; ``max_steps=None`` runs to completion (below 1 it
        raises :class:`~repro.errors.CompactionError`).  The
        returned :class:`~repro.core.compaction.CompactionProgress`
        reports steps, pages rewritten, the worst per-step pause and
        the advisor verdict.

        Before writing anything the compaction advisor prices the
        shadow footprint against FTL headroom and raises
        :class:`~repro.errors.CompactionDeclined` when space is short
        (``HEADROOM_FACTOR`` is the safety margin) -- never an
        out-of-space error mid-fold.  DML interleaved between steps
        aborts and restarts the job; the restart is counted, not an
        error.

        Only the compacted table's data generation bumps (and only when
        its own DML was folded), so cached plans of other tables keep
        serving.  Once a table's delta logs are folded the planner's
        index-order ``ORDER BY`` path opens up again for it.
        """
        self.require_built()
        return self._compactor.compact(table, max_steps)

    def compaction_advice(self, table: str) -> CompactionAdvice:
        """The advisor's verdict on folding ``table`` now -- what
        :meth:`compact` acts on before it writes anything."""
        self.require_built()
        return advise(self.catalog, table)

    def compaction_status(self) -> Dict[str, TableCompactionStatus]:
        """Per-table compaction debt: tombstone and delta-log volume,
        fk-delta edges, the advisor's verdict, and any in-flight job's
        phase.  The same block is appended to ``EXPLAIN ANALYZE``
        output for the tables a query touches."""
        self.require_built()
        return self._compactor.status()

    # ------------------------------------------------------------------
    # statistics catalog
    # ------------------------------------------------------------------
    def analyze(self) -> Dict[str, Dict]:
        """Recompute every table's statistics sketches from live rows.

        The incremental maintenance keeps counts exact but leaves
        min/max as conservative bounds after deletes; ``analyze()``
        re-tightens them.  Bumps the per-table stats generations, so
        cached cost-based plans re-cost on their next lookup (stats
        changes invalidate exactly like data changes).  Returns the
        refreshed per-table summaries.
        """
        self.require_built()
        return self.catalog.analyze()

    def statistics(self) -> Dict[str, Dict]:
        """Per-table, per-column sketch summaries (n, distinct, bounds,
        most common values) as plain dicts."""
        self.require_built()
        return {
            name: stats.describe()
            for name, stats in self.catalog.stats.items()
        }

    # ------------------------------------------------------------------
    # durable token image
    # ------------------------------------------------------------------
    def snapshot(self, path: str) -> Dict[str, int]:
        """Write the database to a durable image file at ``path``.

        One versioned, checksummed file captures the whole token state
        -- FTL mapping, live flash pages, catalog, delta logs,
        statistics sketches, cost ledger and audit log -- plus the
        Untrusted visible image.  :meth:`restore` maps it back in
        milliseconds with zero replay.  Written atomically (temp file +
        rename); refuses to run before :meth:`build` or while an
        incremental compaction job is in flight
        (:class:`~repro.errors.PersistError`).  Returns a size summary.
        """
        from repro.persist.image import snapshot_db
        return snapshot_db(self, path)

    @classmethod
    def restore(cls, path: str, verify: bool = False) -> "GhostDB":
        """Load a database from a :meth:`snapshot` image.

        Restore cost is O(metadata): page payloads stay in the
        ``mmap``-ed image until first read.  The restored database is
        bit-identical to the snapshotted one -- same query results,
        simulated costs, audit log, statistics and future GC behaviour.
        ``verify=True`` additionally checks the page-blob checksum
        (touches the whole file).  Raises
        :class:`~repro.errors.ImageError` on torn, truncated or
        corrupt images.

        The file is read once; its metadata says what ``kind`` of image
        it is.  A fleet manifest (written by
        ``ShardedGhostDB.snapshot``) restores to a
        :class:`~repro.shard.fleet.ShardedGhostDB` -- one entry point
        for both deployment shapes.
        """
        from repro.persist.image import read_image
        meta, blob = read_image(path, verify)
        kind = meta.get("kind")
        if kind == "fleet":
            from repro.shard.persist import restore_fleet
            return restore_fleet(path, meta, verify)
        if kind != "token":
            raise ImageError(f"image {path!r} is of unknown kind {kind!r}")
        return cls.from_meta(meta, blob)

    def compactions_in_flight(self) -> List[str]:
        """Tables with a started, unfinished compaction job (sorted);
        :meth:`snapshot` refuses until there is none."""
        return self._compactor.in_flight() if self._built else []

    def to_meta(self) -> Tuple[Dict, bytes]:
        """Durable form of the database, as ``(meta, blob)``: each
        layer's own ``to_meta`` under its name, the token's page
        payloads as the blob.  The engines wired over the catalog
        (planner, DML, Vis server, oracle) hold no state of their own
        and sessions belong to their clients."""
        token_meta, blob = self.token.to_meta()
        meta = {
            "token": token_meta,
            "schema": self.schema,
            "indexed_columns": self._indexed_columns,
            "untrusted": self.untrusted.to_meta(),
            "catalog": self.catalog.to_meta(),
            "compactor": self._compactor.to_meta(),
            "ikeys": self.ikeys.to_meta(),
        }
        return meta, blob

    @classmethod
    def from_meta(cls, meta: Dict, blob) -> "GhostDB":
        """A built database from :meth:`to_meta` output; ``blob`` backs
        the token's flash pages lazily."""
        db = cls(config=meta["token"]["config"],
                 indexed_columns=meta["indexed_columns"])
        db.token.from_meta(meta["token"], blob)
        db.schema = meta["schema"]
        db.binder = Binder(db.schema)
        db.untrusted = UntrustedEngine.from_meta(db.schema,
                                                 meta["untrusted"])
        db.catalog = SecureCatalog(db.schema, db.token)
        db.catalog.from_meta(meta["catalog"])
        db._wire_engines()
        db._compactor.from_meta(meta["compactor"])
        db.ikeys = IdempotencyLedger.from_meta(meta["ikeys"])
        return db

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Bring the token back to a consistent state after a fault.

        Idempotent, milliseconds: power-cycles the NAND (clears the
        power-loss latch), aborts any in-flight compaction jobs (their
        writes went to shadow files; abort-and-restart is the
        compaction crash contract), rolls back an uncommitted DML
        statement via its :class:`StatementJournal`, frees the
        temporaries a cut read orphaned, runs the checksum recovery
        scan over every mapped page, and drops the page cache
        (host-side only; cached bytes may predate the fault).  Returns
        a :class:`RecoveryReport` of what was done.
        """
        self.require_built()
        report = RecoveryReport()
        if self.token.nand.failed:
            report.power_cycled = True
            self.token.nand.power_on()
            # volatile RAM does not survive the reboot: reclaim any
            # buffers the interrupted statement left allocated
            self.token.ram.power_cycle()
        self.token.store.journal = None
        if self._compactor is not None:
            report.compactions_aborted = self._compactor.abort_all()
        journal = self._journal
        if journal is not None and not journal.committed:
            journal.rollback()
            report.rolled_back_table = journal.table
            self._journal = None
        self.token.store.free_temps_since(0)
        report.corrupt_pages = self.token.ftl.scan_mapped()
        self.token.store.page_cache.clear()
        return report

    def keep_journal(self, journal: StatementJournal) -> None:
        """Take over the undo journal of the statement that just ended
        -- committed or not -- replacing the previous one."""
        self._journal = journal

    def undo_last_dml(self) -> Optional[str]:
        """Roll back the last *committed* DML statement, if undoable.

        The fleet's abort path: when a sibling shard fails or dies
        mid-statement, every shard that already applied its slice is
        rolled back so the whole fleet lands at its pre-statement
        generations.  Returns the rolled-back table name, or ``None``
        when there is nothing to undo.
        """
        journal = self._journal
        if journal is None:
            return None
        journal.rollback()
        self._journal = None
        return journal.table

    # ------------------------------------------------------------------
    # oracle, audit, reports
    # ------------------------------------------------------------------
    def reference_query(self, sql: str) -> Tuple[List[str], List[Tuple]]:
        """Ground-truth evaluation (test oracle -- ignores the token)."""
        self.require_built()
        bound = self.binder.bind_sql(sql)
        return self._reference.execute(bound)

    def audit_outbound(self):
        """Everything that ever left the Secure token."""
        return self.token.channel.audit_outbound()

    def storage_report(self) -> Dict[str, int]:
        """Flash bytes per stored component family."""
        self.require_built()
        return self.catalog.storage_report()

    def set_throughput(self, mbps: float) -> None:
        """Change the simulated channel throughput (Figure 14); a
        throughput that is not positive raises ``ValueError``."""
        self.token.set_throughput(mbps)
