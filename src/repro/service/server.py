"""The asyncio query server: many clients, one secure token.

:class:`GhostServer` multiplexes any number of concurrent client
connections onto one :class:`~repro.core.ghostdb.GhostDB` (or one
fleet).  The token serves one statement at a time -- there is one
64 KB secure RAM and one USB channel -- so every piece of token work
the server does is one job on the token's lane
(:class:`~repro.service.admission.AdmissionController`).  Everything
runs on the event loop's one thread: the server starts one task per
request in the order it decodes the frames, and each task runs its job
at its first step, without yielding, so jobs run in arrival order:

* a **read** pins the generations of the tables it touches, plans (a
  plan-cache hit unless a writer moved one of them) and executes, all
  in one turn, so the ``generations`` its response carries are the
  state it read;
* a **write** (INSERT / DELETE / compaction step) checks its
  idempotency key, applies, takes the next monotone ``writer_seq`` and
  records its response in one turn, and answers with the full
  post-write generation map -- what makes client-side oracles (and
  the concurrency property suite) possible;
* ``snapshot`` is a turn too; ``prepare``, ``stats`` and ``ping``
  only read server state, in arrival order like everything else
  (``prepare`` binds a text only the first time the connection's
  session sees it).

The server never parses: an ``execute`` text's first token routes it,
and a prepared id is the session's number for its cached statement, so
it dies with the statement.  A turn that dies on :class:`PowerLoss`
recovers the token before the error is answered.  A turn holds the
whole token, so every response's ``ram_claim`` is the database's total
secure RAM, and its ``admission_wait_s`` is the time from decoding its
frame to the start of its turn.  While a job runs the server reads and
answers nothing on the wire.
"""

from __future__ import annotations

import argparse
import asyncio
from typing import Any, Callable, Dict, Optional

from repro.core.ghostdb import GhostDB
from repro.core.session import PreparedStatement, Session
from repro.errors import GhostDBError, PowerLoss
from repro.service.admission import AdmissionController, Arrival
from repro.service.protocol import FrameError, read_frame, write_frame
from repro.sql.lexer import leading_keyword

#: per-connection in-flight request cap (backpressure on pipelining)
MAX_INFLIGHT_PER_CONNECTION = 32


def _stats_block(stats) -> Dict[str, Any]:
    """The compact per-response simulated-cost block (what the turn
    held and waited is stamped in by :meth:`GhostServer._on_token`)."""
    return {
        "total_s": stats.total_s,
        "ram_peak": stats.ram_peak,
        "bytes_to_secure": stats.bytes_to_secure,
        "bytes_to_untrusted": stats.bytes_to_untrusted,
        "result_rows": stats.result_rows,
    }


def _field(request: dict, name: str, kind: type,
           required: bool = False) -> Any:
    """``request[name]``, checked to be a ``kind`` (``None`` when an
    optional field is absent): a malformed request is answered with a
    :class:`GhostDBError` naming the field, not an internal error."""
    value = request.get(name)
    if value is None and not required:
        return None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise GhostDBError(
            f"request field {name!r} must be {kind.__name__}, "
            f"got {value!r}")
    return value


class _Connection:
    """Per-connection state: session (it holds the statements)."""

    def __init__(self, session: Session):
        self.session = session
        self.inflight = asyncio.Semaphore(MAX_INFLIGHT_PER_CONNECTION)


class GhostServer:
    """Serve one GhostDB to many concurrent wire clients."""

    def __init__(self, db: GhostDB, host: str = "127.0.0.1",
                 port: int = 0, wire_faults=None):
        db.require_built()
        self.db = db
        self.host = host
        self._requested_port = port
        self.admission = AdmissionController(db.ram_capacity)
        #: optional response-path fault injector (chaos harness only;
        #: see :class:`repro.faults.wire.WireFaults`)
        self.wire_faults = wire_faults
        self._writer_seq = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        # service counters (the ``stats`` op)
        self.connections_total = 0
        self.connections_now = 0
        self.requests_total = 0
        self.errors_total = 0
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

        Each connection finishes the statements it already decoded --
        still waiting for their turn or already run -- and writes their
        responses *before* it is torn down: a stop requested while a
        write is queued must deliver its tagged ``writer_seq``
        response, not drop it.  The drain is shielded so cancelling
        ``stop()`` itself cannot cut it short.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
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
        conn = _Connection(self.db.session())
        self.connections_total += 1
        self.connections_now += 1
        self._conn_tasks.add(asyncio.current_task())
        tasks: set = set()
        try:
            while True:
                # the slot before the frame: a decoded request is
                # handed to its task at once, so a cancel (stop())
                # never lands while the handler holds one
                await conn.inflight.acquire()
                try:
                    request = await read_frame(reader)
                except FrameError:
                    break   # corrupt peer: drop the connection
                if request is None:
                    break
                task = asyncio.ensure_future(self._serve_request(
                    conn, writer, request, self.admission.arrival()))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except asyncio.CancelledError:
            # server stopping: finish like a client disconnect so the
            # task ends cleanly (asyncio's stream glue logs handler
            # tasks that finish cancelled)
            pass
        finally:
            if tasks:
                # shielded: a cancel delivered into this await must not
                # skip the drain and close the writer under an
                # in-flight response (stop() drains through here)
                drain = asyncio.gather(*tasks, return_exceptions=True)
                try:
                    await asyncio.shield(drain)
                except asyncio.CancelledError:
                    await drain
            self._conn_tasks.discard(asyncio.current_task())
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
                             request: dict, arrived: Arrival) -> None:
        req_id = request.get("id")
        self.requests_total += 1
        try:
            response = self._dispatch(conn, request, arrived)
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
        try:
            # one write call per frame: responses finishing together on
            # one connection cannot split each other's frames
            await write_frame(writer, response, fault=self.wire_faults)
        except (ConnectionError, OSError):
            pass   # client went away mid-response

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, conn: _Connection, request: dict,
                  arrived: Arrival) -> dict:
        """The response to ``request``; token work runs here, as one
        turn (:meth:`_on_token`)."""
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "kind": "pong"}
        if op == "stats":
            return self._stats_response(conn)
        if op == "prepare":
            return self._op_prepare(conn, request)
        if op == "exec_stmt":
            stmt = conn.session.plan_cache.by_id(request.get("stmt"))
            if stmt is None:
                raise GhostDBError(
                    f"unknown or evicted prepared statement "
                    f"{request.get('stmt')!r}: prepare it again")
            params = tuple(_field(request, "params", list) or ())
            job = self._select_job(conn, stmt, params)
        elif op == "compact":
            job = self._op_compact(request)
        elif op == "execute":
            job = self._op_execute(conn, request)
        elif op == "snapshot":
            job = self._op_snapshot(request)
        else:
            raise GhostDBError(f"unknown op {op!r}")
        return self._on_token(job, arrived)

    def _op_prepare(self, conn: _Connection, request: dict) -> dict:
        """The id of the session's statement for ``sql``: a text the
        connection already prepared or executed (normalized alike) is
        not bound again and keeps its id."""
        sql = _field(request, "sql", str, required=True)
        if leading_keyword(sql) != "SELECT":
            raise GhostDBError("prepare supports SELECT statements only")
        stmt = conn.session.prepare(sql)
        return {"ok": True, "kind": "prepared", "stmt": stmt.id,
                "param_count": stmt.param_count}

    def _op_execute(self, conn: _Connection,
                    request: dict) -> Callable[[], dict]:
        """An ad-hoc statement: a SELECT runs as the session's cached
        statement for its text (bound once per connection), anything
        else as a write."""
        sql = _field(request, "sql", str, required=True)
        params = tuple(_field(request, "params", list) or ())
        if leading_keyword(sql) == "SELECT":
            return self._select_job(conn, conn.session.prepare(sql), params)
        return self._write_job(
            lambda: self.db.execute(sql, params or None),
            ikey=request.get("ikey"))

    def _op_compact(self, request: dict) -> Callable[[], dict]:
        table = _field(request, "table", str, required=True)
        kwargs: Dict[str, Any] = {}
        for name in ("max_steps", "pages_per_step"):
            value = _field(request, name, int)
            if value is not None:
                kwargs[name] = value

        def run():
            progress = self.db.compact(table, **kwargs)
            return {"ok": True, "kind": "compacted", "table": table,
                    "state": progress.state,
                    "steps": progress.steps_run,
                    "done": progress.done,
                    "pages_rewritten": progress.pages_rewritten}

        return self._write_job(run)

    def _op_snapshot(self, request: dict) -> Callable[[], dict]:
        """A durable image of the served database, written in one turn:
        no statement interleaves with the serialization.  A bounded
        compaction job mid-flight makes :meth:`GhostDB.snapshot` refuse
        (:class:`~repro.errors.PersistError`), answered like any other
        statement error."""
        path = _field(request, "path", str, required=True)
        return lambda: {"ok": True, "kind": "snapshot",
                        **self.db.snapshot(path)}

    # ------------------------------------------------------------------
    # statements: one turn each
    # ------------------------------------------------------------------
    def _on_token(self, job: Callable[[], dict],
                  arrived: Arrival) -> dict:
        """Run ``job`` in its turn and stamp the turn into the
        response's stats block: what it held (the whole token) and how
        long it queued.  Any turn that dies on :class:`PowerLoss`
        recovers the token before the error is reported."""
        try:
            response, waited = self.admission.admit(job, arrived)
        except PowerLoss:
            self.recoveries += 1
            self.db.recover()
            raise
        if "stats" in response:
            response["stats"] = {**response["stats"],
                                 "ram_claim": self.admission.capacity,
                                 "admission_wait_s": round(waited, 6)}
        return response

    def _select_job(self, conn: _Connection, stmt: PreparedStatement,
                    params: tuple) -> Callable[[], dict]:
        """One SELECT: bind the parameters, pin, plan and execute."""
        def job() -> dict:
            result, pinned = conn.session.execute_pinned(
                stmt, stmt.template.substitute(params))
            return {
                "ok": True, "kind": "rows",
                "columns": list(result.columns),
                "rows": [list(r) for r in result.rows],
                "generations": {t: list(g) for t, g in pinned.items()},
                "stats": _stats_block(result.stats),
            }

        return job

    def _write_job(self, fn,
                   ikey: Optional[str] = None) -> Callable[[], dict]:
        """One write, with the exactly-once contract.

        A request whose idempotency key was already recorded is
        answered from the record -- marked ``replayed`` -- without
        touching the token: the earlier attempt applied, only its
        response was lost on the wire.  The record is written in the
        same turn as the write, so no concurrent retry can observe a
        gap between "applied" and "recorded".
        """
        def job() -> dict:
            cached = self.db.ikeys.seen(ikey)
            if cached is not None:
                self.replays += 1
                return {**cached, "replayed": True}
            outcome = fn()
            self._writer_seq += 1
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
                    "stats": _stats_block(outcome.stats),
                }
            response["writer_seq"] = self._writer_seq
            response["generations"] = {
                t: list(g) for t, g in self.db.table_generations.items()
            }
            if ikey is not None and response["kind"] == "dml":
                self.db.ikeys.record(ikey, dict(response))
            return response

        return job

    # ------------------------------------------------------------------
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
