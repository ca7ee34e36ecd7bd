"""The asyncio query server: many clients, one secure token.

:class:`GhostServer` multiplexes any number of concurrent client
connections onto one :class:`~repro.core.ghostdb.GhostDB` instance.
Statements on the token itself execute one at a time (there is one
64 KB secure RAM and one USB channel), but the service keeps many
statements *in flight* and decides, per statement, when it may enter
the pipeline:

* **Admission control** -- every statement pledges its planned
  ``ram_peak`` (see :func:`plan_ram_claim`) with the
  :class:`~repro.service.admission.AdmissionController` before it may
  run; statements that do not fit alongside the currently admitted set
  wait in a FIFO queue.  The controller's ledger hard-raises if the
  admitted set would ever exceed the budget, so the invariant is
  asserted on every admission.
* **Snapshot isolation for readers** -- a SELECT pins the per-table
  ``(data, stats)`` generations of every table it touches, plans
  against that pin, and executes through
  :meth:`~repro.core.session.Session.execute_pinned`, which raises
  :class:`~repro.errors.SnapshotError` the moment the pin is violated.
  A pin broken while the statement waited for admission (a writer got
  in between) transparently re-pins, re-plans and re-admits -- counted
  in ``snapshot_retries``, never visible as a mixed-generation read.
* **A single writer lane** -- INSERT/DELETE/compaction serialize on
  one :class:`asyncio.Lock`; each write is tagged with a monotonically
  increasing ``writer_seq`` and answers with the full post-write
  generation map, which is what makes client-side oracles (and the
  concurrency property suite) possible.

Actual token execution happens in worker threads
(``asyncio.to_thread``) under one :class:`threading.Lock`, keeping the
event loop responsive while admission tickets genuinely overlap.
"""

from __future__ import annotations

import argparse
import asyncio
import threading
from typing import Any, Dict, Optional, Tuple

from repro.core.ghostdb import GhostDB
from repro.core.plan import QueryPlan
from repro.core.session import PreparedStatement, Session
from repro.errors import GhostDBError, PowerLoss, SnapshotError
from repro.hardware.ram import SecureRam
from repro.service.admission import AdmissionController
from repro.service.protocol import FrameError, read_frame, write_frame
from repro.sql import ast
from repro.sql.parser import parse

#: claim, in RAM pages, when a plan carries no costed estimate (plans
#: whose visible selections all sit on the anchor table produce no
#: cost report; measured peaks of such selects are ~2 pages, so 8 is a
#: comfortably conservative pledge)
FALLBACK_CLAIM_PAGES = 8

#: claim, in RAM pages, for the writer lane (INSERT/DELETE/compaction
#: steps measure <= 1 page of transient secure-RAM use; 8 pledges the
#: same conservative envelope as un-costed reads)
WRITER_CLAIM_PAGES = 8

#: every statement pledges at least this much -- row assembly buffers
#: exist even for plans the cost model prices at zero RAM
MIN_CLAIM_PAGES = 2

#: how many snapshot-pin violations one statement retries before the
#: server gives up and reports the conflict to the client
MAX_SNAPSHOT_RETRIES = 16

#: per-connection in-flight request cap (backpressure on pipelining)
MAX_INFLIGHT_PER_CONNECTION = 32


def plan_ram_claim(plan: QueryPlan, ram: SecureRam) -> int:
    """The secure-RAM pledge one planned SELECT admits under.

    Uses the cost model's chosen estimate when the plan carries one
    (``cost_report`` exists only for cost-based choices with free
    tables), falling back to a conservative
    :data:`FALLBACK_CLAIM_PAGES` envelope otherwise, and adding the
    ordering step's priced peak on top of the floor.  Clamped into
    ``[MIN_CLAIM_PAGES * page, capacity]`` so a pledge is always
    satisfiable.
    """
    subplans = getattr(plan, "subplans", None)
    if subplans is not None:
        # a fleet plan pledges the sum of its per-shard claims against
        # the fleet's pooled admission ledger (each fragment occupies
        # its own shard's RAM for the whole statement)
        total = sum(plan_ram_claim(sub, sub_ram)
                    for sub, sub_ram in subplans())
        return min(total, ram.capacity)
    claim = MIN_CLAIM_PAGES * ram.page_size
    chosen = plan.cost_report.chosen if plan.cost_report else None
    if chosen is not None:
        claim = max(claim, chosen.estimate.ram_peak)
    else:
        claim = max(claim, FALLBACK_CLAIM_PAGES * ram.page_size)
    if plan.order is not None:
        order_chosen = plan.order.report.chosen \
            if plan.order.report else None
        if order_chosen is not None:
            claim = max(claim, order_chosen.ram_peak)
        else:
            claim = max(claim, FALLBACK_CLAIM_PAGES * ram.page_size)
    return min(claim, ram.capacity)


def _stats_block(stats, claim: int, waited_s: float) -> Dict[str, Any]:
    """The compact per-response simulated-cost block."""
    return {
        "total_s": stats.total_s,
        "ram_peak": stats.ram_peak,
        "ram_claim": claim,
        "admission_wait_s": round(waited_s, 6),
        "bytes_to_secure": stats.bytes_to_secure,
        "bytes_to_untrusted": stats.bytes_to_untrusted,
        "result_rows": stats.result_rows,
    }


class _Connection:
    """Per-connection state: session, prepared statements, write lock."""

    def __init__(self, server: "GhostServer", session: Session):
        self.server = server
        self.session = session
        self.statements: Dict[int, PreparedStatement] = {}
        self.next_stmt_id = 1
        self.write_lock = asyncio.Lock()
        self.inflight = asyncio.Semaphore(MAX_INFLIGHT_PER_CONNECTION)


class GhostServer:
    """Serve one GhostDB to many concurrent wire clients."""

    def __init__(self, db: GhostDB, host: str = "127.0.0.1",
                 port: int = 0, wire_faults=None):
        db.require_built()
        self.db = db
        self.host = host
        self._requested_port = port
        self.admission = AdmissionController(db.token.ram)
        #: optional response-path fault injector (chaos harness only;
        #: see :class:`repro.faults.wire.WireFaults`)
        self.wire_faults = wire_faults
        #: serializes all actual token access across worker threads
        self._exec_lock = threading.Lock()
        #: serializes DML and compaction (the single writer lane)
        self._writer_lane = asyncio.Lock()
        self._writer_seq = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        # every in-flight request task, across connections: stop()
        # drains these before tearing connections down so a stop
        # mid-write never drops a tagged writer_seq response
        self._request_tasks: set = set()
        # service counters (the ``stats`` op)
        self.connections_total = 0
        self.connections_now = 0
        self.requests_total = 0
        self.errors_total = 0
        self.snapshot_retries = 0
        self.claim_underruns = 0
        self.replays = 0
        self.recoveries = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self._requested_port)

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, drain in-flight requests, close connections.

        In-flight statements -- the writer lane's in particular -- run
        to completion and their responses are written *before* any
        connection is torn down: a stop mid-write must deliver the
        tagged ``writer_seq`` response, not drop it.  The drain is
        shielded so cancelling ``stop()`` itself cannot cut it short.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._request_tasks:
            drain = asyncio.gather(*list(self._request_tasks),
                                   return_exceptions=True)
            try:
                await asyncio.shield(drain)
            except asyncio.CancelledError:
                await drain
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks,
                                 return_exceptions=True)

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def __aenter__(self) -> "GhostServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        conn = _Connection(self, self.db.session())
        self.connections_total += 1
        self.connections_now += 1
        self._conn_tasks.add(asyncio.current_task())
        tasks: set = set()
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except FrameError:
                    break   # corrupt peer: drop the connection
                if request is None:
                    break
                await conn.inflight.acquire()
                task = asyncio.ensure_future(
                    self._serve_request(conn, writer, request))
                tasks.add(task)
                self._request_tasks.add(task)
                task.add_done_callback(tasks.discard)
                task.add_done_callback(self._request_tasks.discard)
        except asyncio.CancelledError:
            # server stopping: finish like a client disconnect so the
            # task ends cleanly (asyncio's stream glue logs handler
            # tasks that finish cancelled)
            pass
        finally:
            self._conn_tasks.discard(asyncio.current_task())
            if tasks:
                # shielded: a cancel delivered into this await must not
                # skip the drain and close the writer under an
                # in-flight response
                drain = asyncio.gather(*tasks, return_exceptions=True)
                try:
                    await asyncio.shield(drain)
                except asyncio.CancelledError:
                    await drain
            self.connections_now -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # a loop torn down mid-close must not log spurious
                # "exception never retrieved" noise from the handler
                pass

    async def _serve_request(self, conn: _Connection,
                             writer: asyncio.StreamWriter,
                             request: dict) -> None:
        req_id = request.get("id")
        self.requests_total += 1
        try:
            response = await self._dispatch(conn, request)
        except GhostDBError as exc:
            self.errors_total += 1
            response = {"ok": False, "error": str(exc),
                        "error_type": type(exc).__name__}
        except Exception as exc:   # noqa: BLE001 - wire boundary
            self.errors_total += 1
            response = {"ok": False, "error": f"internal: {exc}",
                        "error_type": type(exc).__name__}
        finally:
            conn.inflight.release()
        response["id"] = req_id
        async with conn.write_lock:
            try:
                await write_frame(writer, response,
                                  fault=self.wire_faults)
            except (ConnectionError, OSError):
                pass   # client went away mid-response

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, conn: _Connection, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "kind": "pong"}
        if op == "stats":
            return self._stats_response(conn)
        if op == "prepare":
            return await self._op_prepare(conn, request)
        if op == "exec_stmt":
            stmt = conn.statements.get(request.get("stmt"))
            if stmt is None:
                raise GhostDBError(
                    f"unknown prepared statement {request.get('stmt')!r}")
            params = tuple(request.get("params") or ())
            return await self._run_select(conn, stmt, params)
        if op == "compact":
            return await self._op_compact(request)
        if op == "execute":
            return await self._op_execute(conn, request)
        if op == "snapshot":
            return await self._op_snapshot(request)
        raise GhostDBError(f"unknown op {op!r}")

    async def _op_prepare(self, conn: _Connection, request: dict) -> dict:
        sql = request.get("sql", "")
        parsed = parse(sql)
        if not isinstance(parsed, ast.SelectQuery):
            raise GhostDBError("prepare supports SELECT statements only")
        stmt = await asyncio.to_thread(
            self._locked, conn.session.prepare, sql)
        stmt_id = conn.next_stmt_id
        conn.next_stmt_id += 1
        conn.statements[stmt_id] = stmt
        return {"ok": True, "kind": "prepared", "stmt": stmt_id,
                "param_count": stmt.param_count}

    async def _op_execute(self, conn: _Connection, request: dict) -> dict:
        sql = request.get("sql", "")
        params = tuple(request.get("params") or ())
        parsed = parse(sql)
        if isinstance(parsed, ast.SelectQuery):
            stmt = await asyncio.to_thread(
                self._locked, conn.session.prepare, sql, None, None,
                "project", None, parsed)
            return await self._run_select(conn, stmt, params)
        return await self._run_write(
            lambda: self.db.execute(sql, params or None),
            ikey=request.get("ikey"))

    async def _op_compact(self, request: dict) -> dict:
        table = request.get("table")
        kwargs: Dict[str, Any] = {}
        if request.get("max_steps") is not None:
            kwargs["max_steps"] = int(request["max_steps"])
        if request.get("pages_per_step") is not None:
            kwargs["pages_per_step"] = int(request["pages_per_step"])

        def run():
            progress = self.db.compact(table, **kwargs)
            return {"ok": True, "kind": "compacted", "table": table,
                    "state": progress.state,
                    "steps": progress.steps_run,
                    "done": progress.done,
                    "pages_rewritten": progress.pages_rewritten}

        return await self._run_write(run)

    async def _op_snapshot(self, request: dict) -> dict:
        path = request.get("path")
        if not path:
            raise GhostDBError("snapshot requires a 'path'")
        summary = await self.snapshot(path)
        return {"ok": True, "kind": "snapshot", **summary}

    async def snapshot(self, path: str) -> Dict[str, Any]:
        """Write a durable image of the served database to ``path``.

        Holds the writer lane while the image is taken so no DML or
        compaction step can interleave with the serialization; readers
        keep flowing (they never mutate token state).  Inherits
        :meth:`GhostDB.snapshot`'s refusal to snapshot while a bounded
        compaction job is mid-flight
        (:class:`~repro.errors.PersistError`), which the wire layer
        surfaces to the client like any other statement error.
        """
        async with self._writer_lane:
            return await asyncio.to_thread(
                self._locked, self.db.snapshot, path)

    # ------------------------------------------------------------------
    # the reader path: pin -> plan -> admit -> execute under the pin
    # ------------------------------------------------------------------
    async def _run_select(self, conn: _Connection,
                          stmt: PreparedStatement,
                          params: Tuple) -> dict:
        bound = stmt.template.substitute(params)
        label = stmt.sql[:40]
        for _ in range(MAX_SNAPSHOT_RETRIES):
            pinned, plan = await asyncio.to_thread(
                self._pin_and_plan, conn.session, stmt, bound)
            claim = plan_ram_claim(plan, self.db.token.ram)
            with await self.admission.admit(claim, label) as ticket:
                try:
                    result = await asyncio.to_thread(
                        self._locked, conn.session.execute_pinned,
                        plan, pinned)
                except SnapshotError:
                    # a writer slipped in while we waited for
                    # admission; re-pin and re-plan against the new
                    # generations rather than surface a stale read
                    self.snapshot_retries += 1
                    continue
            if result.stats.ram_peak > ticket.claim:
                self.claim_underruns += 1
            stmt.executions += 1
            return {
                "ok": True, "kind": "rows",
                "columns": list(result.columns),
                "rows": [list(r) for r in result.rows],
                "generations": {t: list(g) for t, g in pinned.items()},
                "stats": _stats_block(result.stats, ticket.claim,
                                      ticket.waited_s),
            }
        raise SnapshotError(
            f"statement {label!r} lost the snapshot race "
            f"{MAX_SNAPSHOT_RETRIES} times"
        )

    def _pin_and_plan(self, session: Session, stmt: PreparedStatement,
                      bound) -> Tuple[Dict[str, Tuple[int, int]],
                                      QueryPlan]:
        with self._exec_lock:
            pinned = session.pin_generations(bound.tables)
            plan = stmt.plan_for(bound, generations=pinned)
            return pinned, plan.with_bound(bound)

    # ------------------------------------------------------------------
    # the writer path: one lane, then admission, then the token
    # ------------------------------------------------------------------
    async def _run_write(self, fn, ikey: Optional[str] = None) -> dict:
        """One writer-lane statement, with the exactly-once contract.

        A request whose idempotency key was already recorded is
        answered from the record -- marked ``replayed`` -- without
        touching the token: the earlier attempt applied, only its
        response was lost on the wire.  The record is written inside
        the writer lane, so no concurrent retry can observe a gap
        between "applied" and "recorded".  A statement that dies on
        :class:`PowerLoss` triggers an in-place recovery (power-cycle
        plus statement rollback) before the error is reported.
        """
        claim = min(WRITER_CLAIM_PAGES * self.db.token.ram.page_size,
                    self.db.token.ram.capacity)
        async with self._writer_lane:
            cached = self.db.ikeys.seen(ikey)
            if cached is not None:
                self.replays += 1
                response = dict(cached)
                response["replayed"] = True
                return response
            with await self.admission.admit(claim, "writer") as ticket:
                try:
                    outcome = await asyncio.to_thread(self._locked, fn)
                except PowerLoss:
                    self.recoveries += 1
                    await asyncio.to_thread(self._locked, self.db.recover)
                    raise
                self._writer_seq += 1
                seq = self._writer_seq
            generations = {
                t: list(g)
                for t, g in self.db.table_generations.items()
            }
            if isinstance(outcome, dict):      # compact's ready response
                response = outcome
            elif outcome is None:              # DDL
                response = {"ok": True, "kind": "ok"}
            else:                              # DmlResult
                response = {
                    "ok": True, "kind": "dml",
                    "statement": outcome.statement,
                    "table": outcome.table,
                    "rows_affected": outcome.rows_affected,
                    "stats": _stats_block(outcome.stats, ticket.claim,
                                          ticket.waited_s),
                }
            response["writer_seq"] = seq
            response["generations"] = generations
            if ikey is not None and response.get("kind") == "dml":
                self.db.ikeys.record(ikey, dict(response))
            return response

    # ------------------------------------------------------------------
    def _locked(self, fn, *args):
        """Run ``fn`` holding the token execution lock (thread pool)."""
        with self._exec_lock:
            return fn(*args)

    def _stats_response(self, conn: _Connection) -> dict:
        cache = conn.session.plan_cache
        return {
            "ok": True, "kind": "stats",
            "admission": self.admission.describe(),
            "service": {
                "connections_total": self.connections_total,
                "connections_now": self.connections_now,
                "requests_total": self.requests_total,
                "errors_total": self.errors_total,
                "snapshot_retries": self.snapshot_retries,
                "claim_underruns": self.claim_underruns,
                "writer_seq": self._writer_seq,
                "replays": self.replays,
                "recoveries": self.recoveries,
            },
            "plan_cache": {
                "hits": cache.hits, "misses": cache.misses,
                "entries": len(cache),
            },
            "generations": {
                t: list(g)
                for t, g in self.db.table_generations.items()
            },
        }


# ----------------------------------------------------------------------
# command line: restore a durable image and serve it
# ----------------------------------------------------------------------
async def _serve_image(db: GhostDB, host: str, port: int) -> None:
    server = GhostServer(db, host=host, port=port)
    await server.start()
    print(f"ghostdb: serving on {server.host}:{server.port}")
    await server.serve_forever()


def main(argv: Optional[list] = None) -> None:
    """``python -m repro.service.server --image db.img`` -- restore a
    durable token image (milliseconds, no replay) and serve it."""
    parser = argparse.ArgumentParser(
        prog="repro.service.server",
        description="Serve a GhostDB durable token image over TCP.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default: ephemeral)")
    parser.add_argument("--image", required=True,
                        help="durable image file written by GhostDB.snapshot")
    parser.add_argument("--verify", action="store_true",
                        help="also verify the payload blob checksum on restore")
    args = parser.parse_args(argv)
    db = GhostDB.restore(args.image, verify=args.verify)
    try:
        asyncio.run(_serve_image(db, args.host, args.port))
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()
