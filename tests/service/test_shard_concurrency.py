"""Concurrency property suite over a *sharded* server.

The twin-replay oracle of ``test_concurrency_property`` re-run against
a 2-shard fleet: N pipelining clients drive a mixed workload into a
``GhostServer`` wrapping ``ShardedGhostDB(2)``, and every write is
replayed in ``writer_seq`` order on an identically built twin fleet.
The fleet-specific assertions on top of the single-token oracle:

* a turn on the lane holds every shard: the lane's capacity, and every
  response's ``ram_claim``, is the sum of the shard budgets;
* ``writer_seq`` ordering holds across shard-routed DML -- root
  inserts that land on different shards still replay to identical
  generation maps, because the fleet sums per-shard generations;
* reads stay consistent: every SELECT's rows match the twin's
  reconstructed-global ground truth at the generations it reports.
"""

import asyncio
import random

from repro.service.client import AsyncGhostClient, ServiceError
from repro.service.server import GhostServer
from repro.workloads.queries import H_VALUE
from repro.workloads.synthetic import (SyntheticConfig, build_synthetic,
                                       sv_to_v1_bound)

N_CLIENTS = 4
OPS_PER_CLIENT = 10
SCALE = 0.0005
N_SHARDS = 2


def build_fleet():
    return build_synthetic(SyntheticConfig(scale=SCALE,
                                           full_indexing=True),
                           shards=N_SHARDS)


def _select_sql(rng: random.Random) -> str:
    sv = rng.choice((0.005, 0.05, 0.2))
    k = sv_to_v1_bound(sv)
    return (
        "SELECT T0.id, T1.id, T12.id, T1.v1 "
        "FROM T0, T1, T12 "
        "WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id "
        f"AND T1.v1 < {k} AND T12.h2 = {H_VALUE}"
    )


def _insert_sql(rng: random.Random, n_t1: int, n_t2: int) -> str:
    return (
        f"INSERT INTO T0 VALUES ({rng.randrange(n_t1)}, "
        f"{rng.randrange(n_t2)}, {rng.randrange(1000)}, "
        f"{rng.randrange(1000)}, {rng.randrange(10)})"
    )


async def _client(port: int, rng: random.Random, n_t1: int, n_t2: int,
                  log: list) -> None:
    async with await AsyncGhostClient.connect("127.0.0.1",
                                              port) as client:
        for _ in range(OPS_PER_CLIENT):
            roll = rng.random()
            if roll < 0.55:
                sql = _select_sql(rng)
                result = await client.execute(sql)
                log.append(("select", sql, result))
            elif roll < 0.8:
                sql = _insert_sql(rng, n_t1, n_t2)
                result = await client.execute(sql)
                log.append(("write", sql, result))
            else:
                sql = f"DELETE FROM T0 WHERE T0.v1 = {rng.randrange(1000)}"
                result = await client.execute(sql)
                log.append(("write", sql, result))


def _generation_maps(result) -> dict:
    return {t: tuple(g) for t, g in result.generations.items()}


def test_sharded_server_matches_twin_replay():
    db = build_fleet()
    twin = build_fleet()
    n_t1 = len(db.shards[0].catalog.raw_rows["T1"])
    n_t2 = len(db.shards[0].catalog.raw_rows["T2"])
    per_shard_capacity = [s.token.ram.capacity for s in db.shards]

    async def run():
        async with GhostServer(db) as server:
            logs = [[] for _ in range(N_CLIENTS)]
            await asyncio.gather(*[
                _client(server.port, random.Random(7000 + i),
                        n_t1, n_t2, logs[i])
                for i in range(N_CLIENTS)
            ])
            return logs, server.admission.describe()

    logs, admission = asyncio.run(run())

    # a turn holds every shard: the claim is the sum of the budgets
    assert admission["capacity"] == sum(per_shard_capacity)
    assert admission["peak_reserved"] == admission["capacity"]
    # every statement took exactly one turn, and none failed
    assert admission["admitted"] == N_CLIENTS * OPS_PER_CLIENT
    assert admission["failed"] == 0

    entries = [e for log in logs for e in log]
    writes = sorted((e for e in entries if e[0] == "write"),
                    key=lambda e: e[2].writer_seq)
    selects = [e for e in entries if e[0] == "select"]
    assert selects and writes
    assert {e[2].stats["ram_claim"] for e in entries} == \
        {sum(per_shard_capacity)}

    # writer_seq is a gapless total order across shard-routed DML
    seqs = [e[2].writer_seq for e in writes]
    assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))

    # --- replay writes on the twin fleet in writer_seq order --------
    states = [dict(twin.table_generations)]
    for _, sql, result in writes:
        twin_result = twin.execute(sql)
        assert twin_result.rows_affected == result.rows_affected, \
            f"replay of {sql!r} diverged"
        assert dict(twin.table_generations) == _generation_maps(result), \
            f"generation map diverged after writer_seq={result.writer_seq}"
        states.append(dict(twin.table_generations))

    # --- every select matches exactly one consistent replay state ---
    def state_of(pinned: dict):
        for i, state in enumerate(states):
            if all(state.get(t) == g for t, g in pinned.items()):
                return i
        return None

    by_state = {}
    for _, sql, result in selects:
        i = state_of(_generation_maps(result))
        assert i is not None, \
            "mixed-generation read under sharding: " \
            f"{result.generations} matches no consistent state"
        by_state.setdefault(i, []).append((sql, result))

    # ground truth per pinned state: replay a second twin and compare
    # against its reconstructed-global reference engine
    twin2 = build_fleet()
    for i in range(len(states)):
        for sql, result in by_state.get(i, ()):
            expected = sorted(twin2.reference_query(sql)[1])
            assert sorted(result.rows) == expected, \
                f"rows diverged from global oracle at state {i}: {sql!r}"
        if i < len(writes):
            twin2.execute(writes[i][1])

