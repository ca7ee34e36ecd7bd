#!/usr/bin/env python
"""The query service, end to end: throughput and consistent reads.

Boots the asyncio server over the paper's synthetic database and
demonstrates the service layer's three promises:

1. **Throughput** -- N pipelining clients drive the Query-Q template
   mix concurrently through one token; the load generator reports
   queries/sec, latency percentiles and the lane's counters.
2. **One token lane** -- every statement's token work is one turn,
   taken in arrival order; the counters show statements really queued
   (FIFO) for the token, each turn holding its whole 64 KB.
3. **Consistent reads** -- a reader's response carries the exact
   per-table ``(data, stats)`` generations it read, a writer's
   response carries its ``writer_seq`` and the post-write generation
   map, and a read after a write observes the new generations.

Run:  PYTHONPATH=src python examples/service_demo.py
"""

import asyncio

from repro.service import AsyncGhostClient, GhostServer, run_loadgen
from repro.workloads.queries import query_q
from repro.workloads.synthetic import SyntheticConfig, build_synthetic


async def snapshot_demo(db) -> None:
    """One reader and one writer, the generations they report."""
    async with GhostServer(db) as server:
        async with await AsyncGhostClient.connect(
                "127.0.0.1", server.port) as client:
            before = await client.execute(query_q(0.05))
            print(f"reader read generations: {before.generations}")

            write = await client.execute(
                "INSERT INTO T0 VALUES (0, 0, 10, 10, 5)")
            print(f"writer_seq={write.writer_seq} bumped T0 to "
                  f"{write.generations['T0']}")

            after = await client.execute(query_q(0.05))
            print(f"reader now reads:        {after.generations}")
            assert after.generations["T0"] == write.generations["T0"]
            assert after.generations["T0"] != before.generations["T0"]

            stats = await client.server_stats()
            admission = stats["admission"]
            print(f"lane: {admission['admitted']} turns, "
                  f"{admission['queued_total']} queued, each holding "
                  f"{admission['capacity']} bytes of secure RAM")
            assert admission["admitted"] == 3    # read, write, read
            assert admission["failed"] == 0


def main() -> None:
    db = build_synthetic(SyntheticConfig(scale=0.002,
                                         full_indexing=True))

    # -- 1 + 2: concurrent throughput through the token's lane -------
    report = run_loadgen(db, n_clients=6, n_queries=8)
    print(report.describe())
    assert report.errors == 0
    assert report.admission["admitted"] == 6 * 8   # one turn per query
    print(f"every statement ran in its own turn on the token; "
          f"{report.admission['queued_total']} waited their FIFO turn\n")

    # -- 3: reported generations, writer_seq, generation maps --------
    asyncio.run(snapshot_demo(db))
    print("\nconsistent reads verified: each read reports the one "
          "generation state it read; writes take turns like reads.")


if __name__ == "__main__":
    main()
