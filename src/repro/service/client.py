"""Client library for the GhostDB query service: one client.

:class:`AsyncGhostClient` is the asyncio client.  It pipelines: many
coroutines may issue requests concurrently over one connection, and a
background reader task routes each response to its caller by the
echoed request id.  A closed client raises :class:`ServiceError`
(``ClientClosed``, never retried) instead of sending.

Server-reported failures raise :class:`ServiceError`, which carries
the server's ``error_type`` (the engine exception class name, e.g.
``CompactionDeclined`` or ``PersistError``) for callers that branch
on it.

Failure handling: every request is bounded by ``timeout_s`` and raises
a clean :class:`ServiceTimeout` when the server goes quiet (a late
response is dropped by its request id).  With ``retries > 0`` the
client transparently reconnects and retries transport-level failures
(timeouts, drops, torn frames) with exponential backoff.  Every
``execute`` carries an *idempotency key*, generated once per logical
statement and resent verbatim on every attempt; the server records a
DML response under it in the write's own turn, so a statement whose
response was lost is answered from the record instead of being applied
twice (exactly-once), and answers anything else afresh.  Only
``execute``, ``ping`` and ``server_stats`` are retried:
prepared-statement ids are per-connection, and ``compact``/``snapshot``
carry no idempotency key.
"""

from __future__ import annotations

import asyncio
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import GhostDBError
from repro.service.protocol import FrameError, read_frame, write_frame

#: default per-request timeout (seconds)
DEFAULT_TIMEOUT_S = 30.0

#: default first-retry backoff; doubles per attempt
DEFAULT_BACKOFF_S = 0.05

#: server error_types worth retrying (transport ambiguity, not logic)
_RETRYABLE_TYPES = frozenset({"ConnectionLost", "PowerLoss"})


class ServiceError(GhostDBError):
    """A request the server answered with ``ok: false``."""

    def __init__(self, message: str, error_type: str = ""):
        super().__init__(message)
        self.error_type = error_type


class ServiceTimeout(ServiceError):
    """No response within ``timeout_s`` (dead or stalled server)."""

    def __init__(self, message: str):
        super().__init__(message, "ServiceTimeout")


@dataclass
class ServiceResult:
    """One successful response, lightly structured.

    ``kind`` is the server's response kind (``rows``, ``dml``,
    ``compacted``, ``ok``, ``stats``, ``pong``); the raw payload stays
    available as ``raw`` for fields not lifted into attributes.
    """

    kind: str
    columns: List[str] = field(default_factory=list)
    rows: List[Tuple] = field(default_factory=list)
    rows_affected: int = 0
    writer_seq: Optional[int] = None
    generations: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)
    raw: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_response(cls, response: dict) -> "ServiceResult":
        return cls(
            kind=response.get("kind", ""),
            columns=list(response.get("columns") or ()),
            rows=[tuple(r) for r in response.get("rows") or ()],
            rows_affected=response.get("rows_affected", 0),
            writer_seq=response.get("writer_seq"),
            generations={
                t: tuple(g)
                for t, g in (response.get("generations") or {}).items()
            },
            stats=response.get("stats") or {},
            raw=response,
        )


def _check(response: Optional[dict]) -> dict:
    if response is None:
        raise ServiceError("connection closed by server", "ConnectionLost")
    if not response.get("ok"):
        raise ServiceError(response.get("error", "unknown server error"),
                           response.get("error_type", ""))
    return response


def _retryable(exc: Exception) -> bool:
    if isinstance(exc, ServiceTimeout):
        return True
    if isinstance(exc, ServiceError):
        return exc.error_type in _RETRYABLE_TYPES
    return isinstance(exc, (FrameError, ConnectionError, OSError))


class AsyncGhostClient:
    """Pipelining asyncio client: concurrent requests, one connection."""

    def __init__(self) -> None:
        self._host: Optional[str] = None
        self._port: Optional[int] = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[int, "asyncio.Future[dict]"] = {}
        self._next_id = 1
        self._reader_task: Optional[asyncio.Task] = None
        self._write_lock = asyncio.Lock()
        self.timeout_s: Optional[float] = DEFAULT_TIMEOUT_S
        self.retries = 0
        self.backoff_s = DEFAULT_BACKOFF_S
        self.timeouts_total = 0
        self.retries_total = 0

    @classmethod
    async def connect(cls, host: str, port: int,
                      timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
                      retries: int = 0,
                      backoff_s: float = DEFAULT_BACKOFF_S
                      ) -> "AsyncGhostClient":
        client = cls()
        client._host, client._port = host, port
        client.timeout_s = timeout_s
        client.retries = retries
        client.backoff_s = backoff_s
        await client._open()
        return client

    async def _open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port)
        self._reader_task = asyncio.ensure_future(self._read_loop())

    async def _teardown(self, why: str) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        self._fail_pending(why)

    async def reconnect(self) -> None:
        """Drop the connection (failing in-flight calls) and redial."""
        await self._teardown("reconnecting")
        await self._open()

    async def close(self) -> None:
        await self._teardown("connection closed")

    async def __aenter__(self) -> "AsyncGhostClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                response = await read_frame(self._reader)
                if response is None:
                    break
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (FrameError, ConnectionError, OSError):
            # a truncated frame or dropped connection ends the loop;
            # pending calls fail as ConnectionLost and may be retried
            pass
        finally:
            self._fail_pending("server closed the connection")

    def _fail_pending(self, why: str) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(ServiceError(why, "ConnectionLost"))

    async def _call(self, payload: dict) -> dict:
        if self._writer is None:
            raise ServiceError("client is closed", "ClientClosed")
        req_id = self._next_id
        self._next_id += 1
        request = dict(payload)
        request["id"] = req_id
        future = asyncio.get_running_loop().create_future()
        self._pending[req_id] = future
        async with self._write_lock:
            await write_frame(self._writer, request)
        if self.timeout_s is None:
            return _check(await future)
        try:
            return _check(await asyncio.wait_for(future, self.timeout_s))
        except asyncio.TimeoutError:
            self._pending.pop(req_id, None)
            self.timeouts_total += 1
            raise ServiceTimeout(
                f"no response within {self.timeout_s}s"
            ) from None

    async def _call_with_retries(self, payload: dict) -> dict:
        attempts = max(0, self.retries) + 1
        delay = self.backoff_s
        last: Optional[Exception] = None
        for i in range(attempts):
            if i:
                self.retries_total += 1
                await asyncio.sleep(delay)
                delay *= 2
                try:
                    await self.reconnect()
                except OSError as exc:
                    last = exc
                    continue
            try:
                return await self._call(payload)
            except (ServiceError, FrameError, ConnectionError,
                    OSError) as exc:
                if not _retryable(exc):
                    raise
                last = exc
        raise last

    async def execute(self, sql: str,
                      params: Optional[Sequence] = None) -> ServiceResult:
        """Run one statement of any supported kind.

        Every statement carries an idempotency key (one per call,
        stable across retries): the server applies DML exactly once
        however often the request is resent.
        """
        payload = {"op": "execute", "sql": sql,
                   "params": list(params) if params else None,
                   "ikey": uuid.uuid4().hex}
        return ServiceResult.from_response(
            await self._call_with_retries(payload))

    async def prepare(self, sql: str) -> int:
        """Prepare a SELECT template; returns the statement id."""
        return (await self._call({"op": "prepare", "sql": sql}))["stmt"]

    async def exec_stmt(self, stmt: int,
                        params: Sequence = ()) -> ServiceResult:
        """Execute a prepared statement with ``params``."""
        return ServiceResult.from_response(await self._call(
            {"op": "exec_stmt", "stmt": stmt, "params": list(params)}))

    async def compact(self, table: str,
                      max_steps: Optional[int] = None) -> ServiceResult:
        """Ask the server to (incrementally) compact ``table``."""
        return ServiceResult.from_response(await self._call(
            {"op": "compact", "table": table, "max_steps": max_steps}))

    async def snapshot(self, path: str) -> Dict[str, Any]:
        """Ask the server to write a durable token image to ``path``."""
        return await self._call({"op": "snapshot", "path": path})

    async def server_stats(self) -> Dict[str, Any]:
        """The server's counter snapshot (admission, service, cache)."""
        return await self._call_with_retries({"op": "stats"})

    async def ping(self) -> bool:
        """Liveness probe."""
        return (await self._call_with_retries({"op": "ping"}))["kind"] == \
            "pong"

