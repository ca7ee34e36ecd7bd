"""Service throughput: N pipelining clients x the Query-Q template mix.

Boots the asyncio service over the benchmark synthetic database and
drives it with concurrent clients executing the Figure 10/12 templates
at mixed selectivities.  What this test asserts is correctness under
load -- zero errors, every query answered, one turn on the token's lane per
query.  The wall-clock numbers (queries/sec through the
whole stack, client-observed latency percentiles) are printed, never
committed: they are ``perfbench``'s job (``service_short``).
"""

from repro.bench.experiments import format_table
from repro.service.loadgen import run_loadgen

N_CLIENTS = 8
N_QUERIES = 12      # per client


def test_service_loadgen(synthetic_db):
    report = run_loadgen(synthetic_db, n_clients=N_CLIENTS,
                         n_queries=N_QUERIES)
    print("\n" + format_table([{
        "clients": report.n_clients,
        "queries": report.n_queries,
        "qps": round(report.qps, 1),
        "p50_ms": round(report.latency_p50_ms, 2),
        "p95_ms": round(report.latency_p95_ms, 2),
        "queued": report.admission["queued_total"],
        "max_queue": report.admission["max_queue_depth"],
        "errors": report.errors,
        "error_types": report.error_types,
    }], "Service load generator: wall-clock throughput and latency, "
        "N pipelining clients over one token"))

    # a single failed query fails the benchmark, and the per-type
    # buckets say what broke instead of a bare count
    assert report.error_types == {}
    assert report.errors == 0
    assert report.n_queries == N_CLIENTS * N_QUERIES
    assert report.qps > 0
    # every turn held the whole token, and every query took exactly
    # one turn without failing in it
    assert report.admission["peak_reserved"] == \
        report.admission["capacity"]
    assert report.admission["admitted"] == N_CLIENTS * N_QUERIES
    assert report.admission["failed"] == 0
