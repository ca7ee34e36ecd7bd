"""The four benchmark workloads.

Each workload is a *fixed, seed-generated statement list*: its length
is a constant, not a duration, so every simulated number repeats
exactly for a given seed.  The seed picks the order of the statements
and the rows the writes insert and delete; the data set and the reads'
constants are the same for every seed (see :data:`DATA_SEED`), so two
seeds give statistically the same workload.  The program under test
only ever sees the generated statements.

Why each one exists, and which layer it leaves out, is recorded in
``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

import asyncio
import contextlib
import glob
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import GhostDB
from repro.service import AsyncGhostClient, GhostServer
from repro.service.loadgen import TEMPLATE_FIG10, TEMPLATE_FIG12
from repro.workloads.synthetic import (PAPER_CARDINALITIES, V_DOMAIN,
                                       SyntheticConfig, build_synthetic,
                                       sv_to_v1_bound)

# ----------------------------------------------------------------------
# statement templates
# ----------------------------------------------------------------------
#: fig10 Query Q and fig12 (Query Q plus a hidden projection), with
#: ``T1.v1 < ? AND T12.h2 = ?`` placeholders
Q_FIG10, Q_FIG12 = TEMPLATE_FIG10, TEMPLATE_FIG12
#: ORDER BY ... LIMIT 20 over a hidden join (T0.id makes the order total)
Q_TOPK = ("SELECT T0.id, T1.v1, T1.v2 FROM T0, T1 "
          "WHERE T0.fk1 = T1.id AND T1.v1 < ? AND T0.h3 = ? "
          "ORDER BY T1.v2 DESC, T0.id LIMIT 20")
#: GROUP BY aggregate over the same join
Q_GROUP = ("SELECT T1.v1, COUNT(*), SUM(T1.v2), MIN(T1.v2), MAX(T1.v2) "
           "FROM T0, T1 WHERE T0.fk1 = T1.id AND T1.v1 < ? AND T0.h3 = ? "
           "GROUP BY T1.v1")
#: root-only shapes (the fleet pushes ORDER BY/LIMIT down per shard)
Q_ROOT_TOPK = ("SELECT T0.id, T0.v1, T0.v2 FROM T0 "
               "WHERE T0.v1 < ? AND T0.h3 = ? "
               "ORDER BY T0.v2 DESC, T0.id LIMIT 20")
Q_ROOT_GROUP = ("SELECT T0.v1, COUNT(*), SUM(T0.v2), MIN(T0.v2), "
                "MAX(T0.v2) FROM T0 WHERE T0.v1 < ? AND T0.h3 = ? "
                "GROUP BY T0.v1")
#: sees exactly the rows the benchmark inserted (see ``_insert_op``)
Q_WITNESS = ("SELECT T0.id, T0.v2 FROM T0 "
             "WHERE T0.v1 = ? AND T0.h3 = ?")

INSERT_T0 = "INSERT INTO T0 VALUES (?, ?, ?, ?, ?)"
DELETE_T0_STRIPE = "DELETE FROM T0 WHERE T0.v1 = ?"

TEMPLATES: Dict[str, Tuple[str, bool]] = {
    # name -> (sql, result order is defined)
    "fig10": (Q_FIG10, False),
    "fig12": (Q_FIG12, False),
    "topk": (Q_TOPK, True),
    "group": (Q_GROUP, False),
    "root_topk": (Q_ROOT_TOPK, True),
    "root_group": (Q_ROOT_GROUP, False),
    "witness": (Q_WITNESS, False),
}

#: visible value / hidden value of every row the benchmark inserts into
#: the root table: no bulk-loaded row has this pair (``v1 = 999`` rows
#: carry ``h3 = 9``), so :data:`Q_WITNESS` returns the inserted rows only
INSERT_V1, INSERT_H3 = V_DOMAIN - 1, 4

#: the data set is the same for every ``--seed``: with the paper's
#: exact 10 % / k-per-mille selectivities a handful of rows decide what
#: a short read costs, so reseeding the foreign keys changes the
#: workload itself (simulated cost per statement moved by 13 % between
#: seeds on service_short) instead of sampling the same one
DATA_SEED = 42
#: the hidden constants of the reads: the paper's ``h2 = 2`` and one
#: ``h3`` value, each selecting exactly 10 %
H2, H3 = 2, 7

#: bytes of one T0 row as the user supplied it (5 int columns + id)
T0_ROW_BYTES = 24


@dataclass(frozen=True)
class Op:
    """One generated statement."""

    kind: str                      # read | insert | delete | compact | snapshot
    template: str = ""             # TEMPLATES key (reads)
    params: Tuple = ()
    #: verification key; ``None`` for statements without a row result.
    #: Reads whose answer depends on preceding writes carry their list
    #: position in the key, the others are checked once per key.
    key: Optional[Tuple] = None

    @property
    def sql(self) -> str:
        if self.kind == "read":
            return TEMPLATES[self.template][0]
        return {"insert": INSERT_T0, "delete": DELETE_T0_STRIPE}.get(
            self.kind, self.kind)

    @property
    def ordered(self) -> bool:
        return self.kind == "read" and TEMPLATES[self.template][1]

    def literal_sql(self) -> str:
        """The statement with its parameters spliced in (for the oracle)."""
        sql = self.sql
        for value in self.params:
            sql = sql.replace("?", repr(value), 1)
        return sql


@dataclass
class Outcome:
    """What executing one :class:`Op` returned."""

    rows: Optional[List[Tuple]] = None
    sim_s: float = 0.0
    ram_peak: int = 0
    result_rows: int = 0
    #: by-label simulated seconds of a fleet's gather step
    gather_sim_s: float = 0.0
    #: ``total_s`` of every shard fragment (fleet reads)
    shard_total_s: Sequence[float] = ()
    #: service response block extras
    admission_wait_s: Optional[float] = None
    ram_claim: int = 0
    #: ``CompactionProgress`` of a compact step
    progress: Any = None


def _no_span(_stmt: int):
    """Stands in for ``Tracer.statement`` in untraced rounds."""
    return contextlib.nullcontext()


def read_op(template: str, params: Tuple, position: Optional[int] = None
            ) -> Op:
    key = (template, params) if position is None \
        else (template, params, position)
    return Op("read", template, params, key)


# ----------------------------------------------------------------------
# the workload base: a single in-process token
# ----------------------------------------------------------------------
class Workload:
    """Set-up, statement list and round driver of one workload."""

    name = ""
    #: synthetic scale at ``--scale 1``
    base_scale = 0.01
    shards = 1
    full_indexing = False
    #: rounds start from ``GhostDB.restore()`` of the set-up image
    mutating = False
    #: statements overlap (more than one outstanding) behind a server
    #: that owns the database: reads cannot be oracle-checked in place
    concurrent = False
    clients_x_slots = "1x1"

    def __init__(self, seed: int, scale: float, workdir: str):
        self.factor = scale
        self.scale = self.base_scale * scale
        self.db: Any = None
        self.stmts: Dict[str, Any] = {}
        self.image = os.path.join(workdir, f"{self.name}.img")
        self.snapshot_s = 0.0
        self.restore_s: List[float] = []
        self.n_t1 = max(5, int(PAPER_CARDINALITIES["T1"] * self.scale))
        self.n_t2 = max(5, int(PAPER_CARDINALITIES["T2"] * self.scale))
        self.ops: List[Op] = self.generate(random.Random(seed))
        reads: Dict[str, set] = {}
        for op in self.ops:
            if op.kind == "read":
                reads.setdefault(op.template, set()).add(op.params)
        #: template -> the parameters it is first executed (and so
        #: planned) with: a prepared statement keeps the plan of its
        #: first parameters, and the shuffled list must not decide
        #: which ones those are (the middle selectivity does)
        self.primers: Dict[str, Tuple] = {
            name: sorted(params)[len(params) // 2]
            for name, params in sorted(reads.items())}

    # -- sizes ---------------------------------------------------------
    def reps(self, base: int) -> int:
        return max(1, round(base * self.factor))

    def describe(self) -> Dict[str, Any]:
        """Sizes for the run report (rows, pages vs cache, statements)."""
        tokens = self.tokens()
        return {
            "scale": self.scale,
            "t0_rows": max(5, int(PAPER_CARDINALITIES["T0"] * self.scale)),
            "tokens": len(tokens),
            "flash_pages_per_token": [t.store.pages_used() for t in tokens],
            "page_cache_capacity":
                tokens[0].store.cache_stats()["capacity"],
            "page_bytes": tokens[0].page_size,
            "statements_per_round": len(self.ops),
            "clients_x_slots": self.clients_x_slots,
        }

    # -- set-up --------------------------------------------------------
    def setup(self) -> None:
        """Build from rows; mutating workloads also write the image
        every round restores."""
        self.db = None
        self.db = build_synthetic(
            SyntheticConfig(scale=self.scale, seed=DATA_SEED,
                            full_indexing=self.full_indexing),
            shards=self.shards)
        if self.mutating:
            t0 = time.perf_counter()
            self.db.snapshot(self.image)
            self.snapshot_s = time.perf_counter() - t0

    def image_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in glob.glob(self.image + "*"))

    def tokens(self) -> List[Any]:
        if self.shards > 1:
            return [shard.token for shard in self.db.shards]
        return [self.db.token]

    # -- rounds --------------------------------------------------------
    def begin_round(self) -> None:
        if self.mutating:
            t0 = time.perf_counter()
            self.db = GhostDB.restore(self.image)
            self.restore_s.append(time.perf_counter() - t0)
            self.stmts = {}
        if not self.stmts:
            self.stmts = {name: self.db.prepare(TEMPLATES[name][0])
                          for name in self.primers}
            for name, params in self.primers.items():
                self.stmts[name].execute(params)

    def plan_cache_counts(self) -> Tuple[int, int]:
        """(hits, misses) of the plan caches the reads go through."""
        caches = {id(s.session.plan_cache): s.session.plan_cache
                  for s in self.stmts.values()}
        return (sum(c.hits for c in caches.values()),
                sum(c.misses for c in caches.values()))

    def run_round(self, record: Callable, tracer=None) -> float:
        """Execute the statement list once; returns the round's wall
        seconds (the sum of the statement latencies: one closed-loop
        caller, harness checks excluded)."""
        clock = time.perf_counter
        span = tracer.statement if tracer is not None else _no_span
        wall = 0.0
        for i, op in enumerate(self.ops):
            outcome, error = None, None
            t0 = clock()
            with span(i):
                try:
                    outcome = self.execute(op)
                except Exception as exc:   # noqa: BLE001 - counted as failed
                    error = exc
            dt = clock() - t0
            wall += dt
            record(i, op, dt, outcome, error)
        return wall

    def execute(self, op: Op) -> Outcome:
        db = self.db
        if op.kind == "read":
            result = self.stmts[op.template].execute(op.params)
            stats = result.stats
            shard_stats = getattr(result, "shard_stats", None) or ()
            return Outcome(
                rows=result.rows, sim_s=stats.total_s,
                ram_peak=stats.ram_peak, result_rows=len(result.rows),
                gather_sim_s=stats.by_operator.get("Gather", 0.0)
                if shard_stats else 0.0,
                shard_total_s=[s.total_s for s in shard_stats])
        if op.kind in ("insert", "delete"):
            result = db.execute(op.sql, params=op.params)
            return Outcome(sim_s=result.stats.total_s,
                           ram_peak=result.stats.ram_peak,
                           result_rows=result.rows_affected)
        ledgers = [t.ledger for t in self.tokens()]
        before = sum(l.total_time_s() for l in ledgers)
        if op.kind == "compact":
            progress = db.compact("T0", max_steps=op.params[0])
        elif op.kind == "snapshot":
            progress = None
            db.snapshot(self.image + ".round")
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
        return Outcome(sim_s=sum(l.total_time_s() for l in ledgers) - before,
                       progress=progress)

    def reference_rows(self, op: Op) -> List[Tuple]:
        return self.db.reference_query(op.literal_sql())[1]

    # -- generation helpers ---------------------------------------------
    def generate(self, rng: random.Random) -> List[Op]:
        raise NotImplementedError

    def _insert_parents(self, rng: random.Random, max_read_bound: int,
                        n: int = 8) -> List[Tuple[int, int]]:
        """``(fk1, fk2)`` pairs for the generated root INSERTs.  The T1
        parents have ``v1`` at or above every read's ``T1.v1`` bound,
        so together with ``v1 = INSERT_V1`` no generated read can see
        an inserted row: read answers do not depend on how many
        inserts preceded them.  The set is small and fixed because a
        climbing-index lookup probes once per *distinct* new child in
        the fk-delta edges: reusing parents keeps a read's simulated
        cost independent of the insert count as well."""
        if self.n_t1 <= max_read_bound:
            raise ValueError(
                f"--scale too small: T1 has {self.n_t1} rows, the reads "
                f"select v1 < {max_read_bound}")
        pairs = []
        while len(pairs) < n:
            fk1 = rng.randrange(self.n_t1)
            if fk1 % V_DOMAIN >= max_read_bound:
                pairs.append((fk1, rng.randrange(self.n_t2)))
        return pairs

    @staticmethod
    def _insert_op(rng: random.Random, parents: Tuple[int, int]) -> Op:
        return Op("insert", params=(*parents, INSERT_V1,
                                    rng.randrange(V_DOMAIN), INSERT_H3))

    def finish(self) -> None:
        """Release what the workload holds open."""
        self.db = None
        self.stmts = {}
        for path in glob.glob(self.image + "*"):
            os.remove(path)


# ----------------------------------------------------------------------
class SelectHeavy(Workload):
    """Prepared 10-50 ms reads on a token larger than its page cache."""

    name = "select_heavy"
    base_scale = 0.0075
    SELECTIVITIES = (0.05, 0.1, 0.2)
    REPS = 4                       # x 12 combos = 48 reads

    def generate(self, rng: random.Random) -> List[Op]:
        # the seed moves every visible bound by up to 2 %, so two seeds
        # run near-identical but not identical reads
        def bound(sv: float) -> int:
            k = sv_to_v1_bound(sv)
            return k + rng.randint(-(k // 50), k // 50)

        combos = [
            read_op(template, (bound(sv), hidden))
            for template, hidden in (("fig10", H2), ("fig12", H2),
                                     ("topk", H3), ("group", H3))
            for sv in self.SELECTIVITIES
        ]
        ops = combos * self.reps(self.REPS)
        rng.shuffle(ops)
        return ops


# ----------------------------------------------------------------------
class WriteChurn(Workload):
    """DELETE stripes, root INSERTs, bounded compaction, reads between."""

    name = "write_churn"
    base_scale = 0.005
    mutating = True
    BATCHES = 6
    INSERTS_PER_BATCH = 25
    COMPACT_STEPS = 4
    READ_BOUND = sv_to_v1_bound(0.05)

    def generate(self, rng: random.Random) -> List[Op]:
        ops: List[Op] = []
        stripes = rng.sample(range(self.READ_BOUND),
                             min(self.READ_BOUND, self.reps(self.BATCHES)))
        for stripe in stripes:
            ops.append(Op("delete", params=(stripe,)))
            for _ in range(self.INSERTS_PER_BATCH):
                # unlike the other workloads' inserts these land inside
                # the reads' predicates, so every read is position-keyed
                ops.append(Op("insert", params=(
                    rng.randrange(min(self.n_t1, 5 * self.READ_BOUND)),
                    rng.randrange(self.n_t2),
                    rng.randrange(2 * self.READ_BOUND),
                    rng.randrange(V_DOMAIN), rng.randrange(10))))
            ops.append(Op("compact", params=(self.COMPACT_STEPS,)))
            for _ in range(2):
                # the repeat is served from the plan cache the DML
                # above just invalidated: hit ratio 0.5 by design.  Both
                # see the same state, so they share one oracle check
                # (keyed by the batch's stripe).
                ops.append(read_op("fig10", (self.READ_BOUND, H2),
                                   position=stripe))
                ops.append(read_op("root_topk", (self.READ_BOUND, H3),
                                   position=stripe))
        ops.append(Op("compact", params=(None,)))
        ops.append(Op("snapshot"))
        return ops


# ----------------------------------------------------------------------
class FleetScatter(Workload):
    """Scatter-gather reads plus routed root INSERTs on four tokens."""

    name = "fleet_scatter"
    base_scale = 0.003
    shards = 4
    full_indexing = True
    mutating = True
    SELECTIVITIES = (0.01, 0.05, 0.1, 0.2)
    REPS = 6                       # x 16 combos = 96 reads
    INSERT_SHARE = 0.05

    def generate(self, rng: random.Random) -> List[Op]:
        combos = [
            read_op(template, (sv_to_v1_bound(sv), hidden))
            for template, hidden in (("fig10", H2), ("fig12", H2),
                                     ("root_topk", H3), ("root_group", H3))
            for sv in self.SELECTIVITIES
        ]
        ops = combos * self.reps(self.REPS)
        rng.shuffle(ops)
        parents = self._insert_parents(
            rng, sv_to_v1_bound(max(self.SELECTIVITIES)))
        middle = sv_to_v1_bound(sorted(self.SELECTIVITIES)[
            len(self.SELECTIVITIES) // 2])
        n_inserts = max(1, round(len(ops) * self.INSERT_SHARE))
        for at in sorted(rng.sample(range(len(ops)), n_inserts),
                         reverse=True):
            # an INSERT drops every cached plan of the root table, and
            # a template keeps the plan of the first parameters it runs
            # with afterwards: one middle-selectivity read per template
            # follows each INSERT, so the shuffle does not decide which
            # plans the rest of the list runs on
            ops[at:at] = [self._insert_op(rng, rng.choice(parents))] + [
                op for op in combos if op.params[0] == middle]
        ops.append(read_op("witness", (INSERT_V1, INSERT_H3),
                           position=len(ops)))
        return ops


# ----------------------------------------------------------------------
class ServiceShort(Workload):
    """Short prepared reads through the TCP service, 8 outstanding."""

    name = "service_short"
    base_scale = 0.01
    mutating = True
    SELECTIVITIES = (0.001, 0.005, 0.01)
    REPS = 32                      # x 6 combos = 192 reads
    INSERT_SHARE = 0.05
    concurrent = True
    CLIENTS = 2
    SLOTS = 4
    #: inserts already in the set-up image, one per insert parent: a
    #: read's simulated cost steps when the delta logs and fk-delta
    #: edges get their first entries, so the image starts with them
    #: warm and the cost no longer depends on how many of the round's
    #: inserts happened to precede the read (8 outstanding statements
    #: make that number vary from run to run)
    WARM_INSERTS = 8
    clients_x_slots = f"{CLIENTS}x{SLOTS}"

    def __init__(self, seed: int, scale: float, workdir: str):
        super().__init__(seed, scale, workdir)
        #: the server's counters, read over the wire as a round ends
        self.server_stats: Dict[str, Any] = {}

    def generate(self, rng: random.Random) -> List[Op]:
        combos = [
            read_op(template, (sv_to_v1_bound(sv), H2))
            for template in ("fig10", "fig12")
            for sv in self.SELECTIVITIES
        ]
        ops = combos * self.reps(self.REPS)
        parents = self._insert_parents(
            rng, sv_to_v1_bound(max(self.SELECTIVITIES)), self.WARM_INSERTS)
        ops += [self._insert_op(rng, rng.choice(parents)) for _ in range(
            max(1, round(len(ops) * self.INSERT_SHARE)))]
        rng.shuffle(ops)
        self._warm = [self._insert_op(rng, pair) for pair in parents]
        ops.append(read_op("witness", (INSERT_V1, INSERT_H3),
                           position=len(ops)))
        return ops

    def setup(self) -> None:
        self.db = None
        self.db = build_synthetic(
            SyntheticConfig(scale=self.scale, seed=DATA_SEED))
        for op in self._warm:
            self.db.execute(op.sql, params=op.params)
        t0 = time.perf_counter()
        self.db.snapshot(self.image)
        self.snapshot_s = time.perf_counter() - t0

    def begin_round(self) -> None:
        super().begin_round()
        self.server_stats = {}

    def plan_cache_counts(self) -> Tuple[int, int]:
        caches = self.server_stats.get("plan_caches", [])
        return (sum(c["hits"] for c in caches),
                sum(c["misses"] for c in caches))

    # -- the same list, in process (the service-tax baseline) -----------
    def run_round_direct(self, record: Callable) -> float:
        """Replay the statement list on the database directly, one
        caller, no server: what the reads and writes cost without
        framing, hand-off, admission and queueing."""
        return Workload.run_round(self, record)

    # -- through the wire ------------------------------------------------
    def run_round(self, record: Callable, tracer=None) -> float:
        return asyncio.run(self._round(record, tracer))

    async def _round(self, record: Callable, tracer) -> float:
        clock = time.perf_counter
        last = len(self.ops) - 1          # the witness runs after a drain
        feed = iter(enumerate(self.ops[:last]))
        async with GhostServer(self.db) as server:
            clients = [await AsyncGhostClient.connect(
                "127.0.0.1", server.port, timeout_s=60.0)
                for _ in range(self.CLIENTS)]
            try:
                handles = [{name: await c.prepare(TEMPLATES[name][0])
                            for name in self.primers} for c in clients]
                for client, handle in zip(clients, handles):
                    for name, params in self.primers.items():
                        await client.exec_stmt(handle[name], params)

                span = tracer.statement if tracer is not None else _no_span

                async def one(i: int, op: Op, which: int) -> None:
                    outcome, error = None, None
                    t0 = clock()
                    try:
                        with span(i):
                            outcome = await self._call(
                                clients[which], handles[which], op)
                    except Exception as exc:   # noqa: BLE001 - counted
                        error = exc
                    record(i, op, clock() - t0, outcome, error)

                async def slot(which: int) -> None:
                    for i, op in feed:
                        await one(i, op, which)

                start = clock()
                slots = [asyncio.ensure_future(slot(c))
                         for c in range(self.CLIENTS)
                         for _ in range(self.SLOTS)]
                await asyncio.gather(*slots)
                await one(last, self.ops[last], 0)
                wall = clock() - start
                stats = [await c.server_stats() for c in clients]
                self.server_stats = {
                    "admission": stats[0]["admission"],
                    "service": stats[0]["service"],
                    "plan_caches": [s["plan_cache"] for s in stats],
                }
            finally:
                for client in clients:
                    await client.close()
        return wall

    @staticmethod
    async def _call(client, handles: Dict[str, int], op: Op) -> Outcome:
        if op.kind == "read":
            result = await client.exec_stmt(handles[op.template], op.params)
        else:
            result = await client.execute(op.sql, op.params)
        stats = result.stats
        return Outcome(
            rows=result.rows if op.kind == "read" else None,
            sim_s=stats["total_s"], ram_peak=stats["ram_peak"],
            result_rows=stats["result_rows"],
            admission_wait_s=stats["admission_wait_s"],
            ram_claim=stats["ram_claim"])


WORKLOADS = {cls.name: cls for cls in
             (SelectHeavy, WriteChurn, ServiceShort, FleetScatter)}
