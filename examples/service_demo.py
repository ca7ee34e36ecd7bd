#!/usr/bin/env python
"""The query service, end to end: concurrent clients and consistent reads.

Boots the asyncio server over the paper's synthetic database and
demonstrates the service layer's three promises:

1. **Concurrent clients** -- six pipelining clients prepare the Query-Q
   templates (Figures 10 and 12) and run them at mixed selectivities
   at once through one token; every statement is answered.  The
   example prints no throughput: wall-clock numbers are ``perfbench``'s
   (``service_short``).
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

from repro.service import AsyncGhostClient, GhostServer
from repro.service.loadgen import TEMPLATE_FIG10, TEMPLATE_FIG12
from repro.workloads.queries import H_VALUE, query_q
from repro.workloads.synthetic import (SyntheticConfig, build_synthetic,
                                       sv_to_v1_bound)

N_CLIENTS = 6
N_QUERIES = 8       # per client
SELECTIVITIES = (0.001, 0.01, 0.1)


async def client_run(port: int, i: int) -> None:
    """Client ``i``: prepare both templates, run ``N_QUERIES`` of them
    (a failed statement raises ``ServiceError`` out of the gather)."""
    async with await AsyncGhostClient.connect("127.0.0.1", port) as client:
        stmts = [await client.prepare(t)
                 for t in (TEMPLATE_FIG10, TEMPLATE_FIG12)]
        for q in range(N_QUERIES):
            sv = SELECTIVITIES[(i + q) % len(SELECTIVITIES)]
            await client.exec_stmt(stmts[q % 2], (sv_to_v1_bound(sv), H_VALUE))


async def lane_demo(db) -> None:
    """Concurrent clients, one turn on the token per statement."""
    async with GhostServer(db) as server:
        await asyncio.gather(*[
            client_run(server.port, i) for i in range(N_CLIENTS)])
        async with await AsyncGhostClient.connect(
                "127.0.0.1", server.port) as client:
            admission = (await client.server_stats())["admission"]
    print(f"{N_CLIENTS} clients x {N_QUERIES} statements; "
          f"lane: {admission['admitted']} turns, "
          f"{admission['queued_total']} waited their FIFO turn")
    assert admission["admitted"] == N_CLIENTS * N_QUERIES   # one turn each
    assert admission["failed"] == 0


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

    # -- 1 + 2: concurrent clients through the token's lane ----------
    asyncio.run(lane_demo(db))
    print("every statement ran in its own turn on the token\n")

    # -- 3: reported generations, writer_seq, generation maps --------
    asyncio.run(snapshot_demo(db))
    print("\nconsistent reads verified: each read reports the one "
          "generation state it read; writes take turns like reads.")


if __name__ == "__main__":
    main()
