"""Concurrency property suite: N clients vs a generation-tagged oracle.

The server tags every write (DML and compaction) with a monotone
``writer_seq`` and the full post-write generation map, and every read
with the generations it pinned.  That makes a *twin-replay* oracle
possible:

1. build a second, identical database (the synthetic generator is
   deterministic per seed);
2. replay the writes on the twin in ``writer_seq`` order, checking
   after each that the twin's generation map equals the map the server
   reported -- any divergence means the server interleaved writes
   differently than it claims;
3. for every SELECT, find the replay state whose generations contain
   the response's pinned map and compare the rows against the twin's
   ground-truth :meth:`reference_query` at exactly that state.  A
   reported map contained in *no* replay state is a mixed-generation
   read -- what running each read as one turn on the token rules out.

A separate test forces the compaction advisor to decline and checks a
declined job ends its turn without stalling the lane.
"""

import asyncio
import random

from repro.errors import CompactionDeclined
from repro.service.client import AsyncGhostClient, ServiceError
from repro.service.server import GhostServer
from repro.workloads.queries import H_VALUE
from repro.workloads.synthetic import sv_to_v1_bound

from harness import build_db, serving

N_CLIENTS = 4
OPS_PER_CLIENT = 12
SCALE = 0.0005


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
            elif roll < 0.75:
                sql = _insert_sql(rng, n_t1, n_t2)
                result = await client.execute(sql)
                log.append(("write", sql, result))
            elif roll < 0.9:
                sql = f"DELETE FROM T0 WHERE T0.v1 = {rng.randrange(1000)}"
                result = await client.execute(sql)
                log.append(("write", sql, result))
            else:
                try:
                    result = await client.compact("T0", max_steps=4)
                except ServiceError as exc:
                    assert exc.error_type == "CompactionDeclined"
                else:
                    log.append(("compact", ("T0", 4), result))


def _generation_maps(result) -> dict:
    return {t: tuple(g) for t, g in result.generations.items()}


def test_concurrent_mixed_workload_matches_twin_replay():
    db = build_db(SCALE)
    twin = build_db(SCALE)
    n_t1 = len(db.catalog.raw_rows["T1"])
    n_t2 = len(db.catalog.raw_rows["T2"])

    async def run():
        async with GhostServer(db) as server:
            logs = [[] for _ in range(N_CLIENTS)]
            await asyncio.gather(*[
                _client(server.port, random.Random(1000 + i),
                        n_t1, n_t2, logs[i])
                for i in range(N_CLIENTS)
            ])
            return logs, server.admission.describe()

    logs, admission = asyncio.run(run())
    entries = [e for log in logs for e in log]
    writes = sorted(
        (e for e in entries if e[0] in ("write", "compact")),
        key=lambda e: e[2].writer_seq,
    )
    selects = [e for e in entries if e[0] == "select"]
    assert selects and writes       # the mix exercised both paths

    # --- replay writes on the twin, asserting the generation chain ---
    states = [dict(twin.table_generations)]
    for kind, what, result in writes:
        if kind == "write":
            twin_result = twin.execute(what)
            assert twin_result.rows_affected == result.rows_affected, \
                f"replay of {what!r} diverged"
        else:
            table, max_steps = what
            progress = twin.compact(table, max_steps=max_steps)
            assert progress.state == result.raw["state"]
        assert dict(twin.table_generations) == _generation_maps(result), \
            f"generation map diverged after writer_seq={result.writer_seq}"
        states.append(dict(twin.table_generations))

    # --- every select must match exactly one consistent state -------
    def state_of(pinned: dict):
        for i, state in enumerate(states):
            if all(state.get(t) == g for t, g in pinned.items()):
                return i
        return None

    by_state = {}
    for _, sql, result in selects:
        i = state_of(_generation_maps(result))
        assert i is not None, \
            f"mixed-generation read: {result.generations} matches no " \
            f"consistent state of the write chain"
        by_state.setdefault(i, []).append((sql, result))

    # evaluate each select's ground truth at its pinned state by
    # replaying the twin *again* up to that state
    twin2 = build_db(SCALE)
    for i in range(len(states)):
        for sql, result in by_state.get(i, ()):
            expected = sorted(twin2.reference_query(sql)[1])
            assert sorted(result.rows) == expected, \
                f"rows diverged from oracle at state {i}: {sql!r}"
        if i < len(writes):
            kind, what, _ = writes[i]
            if kind == "write":
                twin2.execute(what)
            else:
                twin2.compact(what[0], max_steps=what[1])

    # every turn held the whole token, every statement took exactly
    # one turn, and only the declined compactions (the ops left out of
    # the logs) failed in theirs
    assert admission["peak_reserved"] == admission["capacity"]
    assert admission["admitted"] == N_CLIENTS * OPS_PER_CLIENT
    assert admission["failed"] == N_CLIENTS * OPS_PER_CLIENT - len(entries)


def test_declined_compaction_never_stalls_admission():
    db = build_db(SCALE)

    def declining_compact(table, *args, **kwargs):
        raise CompactionDeclined(
            f"advisor: no headroom to fold {table}")

    db._compactor.compact = declining_compact

    async def drive(port):
        async with await AsyncGhostClient.connect("127.0.0.1",
                                                  port) as client:
            compactions = [client.compact("T0") for _ in range(3)]
            reads = [client.execute(_select_sql(random.Random(i)))
                     for i in range(6)]
            outcomes = await asyncio.gather(*compactions, *reads,
                                            return_exceptions=True)
            declined = [o for o in outcomes
                        if isinstance(o, ServiceError)]
            rows = [o for o in outcomes
                    if not isinstance(o, Exception)]
            assert len(declined) == 3
            assert all(o.error_type == "CompactionDeclined"
                       for o in declined)
            assert len(rows) == 6        # readers sailed through
            # the lane moved on: a real write goes through
            ins = await client.execute(
                "INSERT INTO T0 VALUES (0, 0, 1, 1, 1)")
            assert ins.writer_seq == 1
            return await client.server_stats()

    with serving(db) as server:
        stats = asyncio.run(drive(server.port))
    # 3 compactions, 6 reads, 1 INSERT: one turn each, the declined
    # compactions counted as the lane's failures
    assert stats["admission"]["admitted"] == 10
    assert stats["admission"]["failed"] == 3
    assert stats["service"]["errors_total"] == 3
