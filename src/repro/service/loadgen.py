"""The service load generator: N clients x Query-Q template mix.

Boots an in-process :class:`~repro.service.server.GhostServer` over a
given database, connects ``n_clients`` pipelining async clients, and
has each run ``n_queries`` parameterized executions of the paper's
Query Q templates (the Figure 10 shape and its Figure 12 variant with
a hidden projection), at randomized visible selectivities.  Reports
client-observed wall-clock throughput and latency percentiles plus the
server's admission counters (``benchmarks/test_service_loadgen.py``
asserts on them and prints the wall numbers).

Wall-clock here measures the *service*: framing and the wait for the
token's lane around the simulated token.  The simulated-time cost of
the queries themselves is the figure benchmarks' subject, not this
one's.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.core.ghostdb import GhostDB
from repro.service.client import AsyncGhostClient
from repro.service.server import GhostServer
from repro.workloads.queries import H_VALUE
from repro.workloads.synthetic import sv_to_v1_bound

#: Query Q (Figure 10) as a service-side prepared template
TEMPLATE_FIG10 = (
    "SELECT T0.id, T1.id, T12.id, T1.v1 "
    "FROM T0, T1, T12 "
    "WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id "
    "AND T1.v1 < ? AND T12.h2 = ?"
)

#: Query Q with a hidden projection (Figure 12) as a template
TEMPLATE_FIG12 = (
    "SELECT T0.id, T1.id, T12.id, T1.v1, T1.h1 "
    "FROM T0, T1, T12 "
    "WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id "
    "AND T1.v1 < ? AND T12.h2 = ?"
)

DEFAULT_TEMPLATES = (TEMPLATE_FIG10, TEMPLATE_FIG12)

#: visible selectivities the generator samples from (paper range)
SELECTIVITIES = (0.001, 0.01, 0.1)

#: client ``i`` draws its queries from ``random.Random(SEED + i)``
SEED = 7

#: transport retries per request (the client's default read timeout
#: applies); recovered retries are reported, not hidden
RETRIES = 2


@dataclass
class LoadgenReport:
    """What one load-generator run measured."""

    n_clients: int
    n_queries: int                 # completed queries, all clients
    errors: int
    wall_s: float
    qps: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_max_ms: float
    admission: Dict[str, Any] = field(default_factory=dict)
    service: Dict[str, Any] = field(default_factory=dict)
    #: failure counts bucketed by error type (server-side ``error_type``
    #: for ServiceError, exception class name otherwise) -- a failing
    #: run must say *what* failed, not just how often
    error_types: Dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        """One-line summary for logs and benchmark output."""
        breakdown = ""
        if self.error_types:
            parts = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.error_types.items())
            )
            breakdown = f" ({parts})"
        return (
            f"loadgen: {self.n_clients} clients, "
            f"{self.n_queries} queries in {self.wall_s:.2f}s = "
            f"{self.qps:.1f} q/s; latency p50 "
            f"{self.latency_p50_ms:.1f}ms p95 "
            f"{self.latency_p95_ms:.1f}ms; "
            f"queued {self.admission.get('queued_total', 0)}, "
            f"max queue depth {self.admission.get('max_queue_depth', 0)}, "
            f"errors {self.errors}{breakdown}"
        )


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1,
              max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def _error_bucket(exc: Exception) -> str:
    """Bucket key for one failure: server error_type, else class name."""
    error_type = getattr(exc, "error_type", None)
    return error_type if error_type else type(exc).__name__


async def _client_run(host: str, port: int, templates: Sequence[str],
                      n_queries: int, rng: random.Random,
                      latencies_ms: List[float],
                      error_types: Dict[str, int]) -> None:
    client = await AsyncGhostClient.connect(host, port, retries=RETRIES)
    async with client:
        stmts = [await client.prepare(t) for t in templates]
        for _ in range(n_queries):
            stmt = rng.choice(stmts)
            sv = rng.choice(SELECTIVITIES)
            params = (sv_to_v1_bound(sv), H_VALUE)
            t0 = time.perf_counter()
            try:
                await client.exec_stmt(stmt, params)
            except Exception as exc:   # noqa: BLE001 - counted, not fatal
                bucket = _error_bucket(exc)
                error_types[bucket] = error_types.get(bucket, 0) + 1
            else:
                latencies_ms.append(
                    (time.perf_counter() - t0) * 1e3)
        # fold the client's transport counters into the error
        # breakdown (distinct buckets from the terminal-failure ones:
        # these count *observations*, including recovered retries, so
        # a retry storm shows up even when every query succeeds)
        if client.timeouts_total:
            error_types["TimeoutObserved"] = (
                error_types.get("TimeoutObserved", 0)
                + client.timeouts_total)
        if client.retries_total:
            error_types["Retried"] = (
                error_types.get("Retried", 0) + client.retries_total)


async def _run(db: GhostDB, n_clients: int, n_queries: int,
               templates: Sequence[str]) -> LoadgenReport:
    async with GhostServer(db) as server:
        latencies_ms: List[float] = []
        error_types: Dict[str, int] = {}
        t0 = time.perf_counter()
        await asyncio.gather(*[
            _client_run(server.host, server.port, templates, n_queries,
                        random.Random(SEED + i), latencies_ms, error_types)
            for i in range(n_clients)
        ])
        wall_s = time.perf_counter() - t0
        admission = server.admission.describe()
        service = {
            "connections_total": server.connections_total,
            "requests_total": server.requests_total,
            "errors_total": server.errors_total,
        }
    latencies_ms.sort()
    done = len(latencies_ms)
    return LoadgenReport(
        n_clients=n_clients,
        n_queries=done,
        errors=sum(error_types.values()),
        wall_s=wall_s,
        qps=done / wall_s if wall_s > 0 else 0.0,
        latency_p50_ms=_percentile(latencies_ms, 0.50),
        latency_p95_ms=_percentile(latencies_ms, 0.95),
        latency_max_ms=latencies_ms[-1] if latencies_ms else 0.0,
        admission=admission,
        service=service,
        error_types=dict(sorted(error_types.items())),
    )


def run_loadgen(db: GhostDB, n_clients: int = 8, n_queries: int = 25,
                templates: Sequence[str] = DEFAULT_TEMPLATES
                ) -> LoadgenReport:
    """Run the load generator against ``db`` and report throughput.

    ``n_queries`` is per client; the report counts completed queries
    across all clients.  Deterministic in *which* queries run
    (wall-clock numbers vary with the machine, as any wall-clock
    benchmark does).  Clients run with the default read timeout and
    ``RETRIES`` transport retries; observed timeouts and retry
    attempts are folded into ``report.error_types`` under the
    ``TimeoutObserved`` / ``Retried`` buckets so a retry storm is
    visible even when every query eventually succeeds.
    """
    return asyncio.run(_run(db, n_clients, n_queries, templates))
