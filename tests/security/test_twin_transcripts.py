"""Noninterference on twins: what leaves Secure is a function of the
statement and the visible data, never of the hidden data.

Three *twin* databases share the schema, every visible value and every
table's cardinality; their hidden columns and hidden foreign keys are
drawn independently, and in one twin the hidden predicate of the
fig10/fig12 queries never matches (every such result is empty).  An
observer of the channel sees each outbound message (kind, size,
description, order) and the inbound byte count; for every statement
shape, strategy setting and projection mode those must be the same on
all three twins -- on one token, on a two-shard fleet (per-shard
channels) and through the batched path.  Through ``GhostServer`` the
untrusted server also sees every response frame: its ``columns``,
``generations`` and ``stats.ram_claim`` must be the same too, and the
only ``stats`` fields that may differ are the caller's own result
figures (:data:`CALLER_STATS`).

In the possible-worlds reading of the hidden part, each difference
would be an event an observer could condition the worlds on; here the
transcript is constant over the worlds that agree on the visible part.
"""

import asyncio
import random

from repro import GhostDB
from repro.service.client import AsyncGhostClient
from repro.service.server import GhostServer
from repro.shard import ShardedGhostDB
from repro.workloads.queries import (H_VALUE, query_q,
                                     query_q_with_hidden_projection)

DDL = (
    "CREATE TABLE T0 (id int, fk1 int HIDDEN REFERENCES T1, "
    "v1 int, v2 int, h3 int HIDDEN)",
    "CREATE TABLE T1 (id int, fk12 int HIDDEN REFERENCES T12, "
    "v1 int, v2 int, h1 int HIDDEN)",
    "CREATE TABLE T12 (id int, v1 int, v2 int, h1 int HIDDEN, "
    "h2 int HIDDEN)",
)
INDEXES = {"T0": ("h3",), "T1": ("h1",), "T12": ("h1", "h2")}
ROWS = {"T12": 24, "T1": 90, "T0": 360}

STATEMENTS = tuple(
    sql_of(sv) for sv in (0.01, 0.2, 0.5)
    for sql_of in (query_q, query_q_with_hidden_projection)
) + (
    "SELECT T0.id, T1.id, T1.v1 FROM T0, T1 WHERE T0.fk1 = T1.id "
    "AND T1.v1 < 400 AND T0.h3 = 1 ORDER BY T1.v1 DESC, T0.id LIMIT 7",
    "SELECT T12.v2, COUNT(*) FROM T0, T1, T12 WHERE T0.fk1 = T1.id "
    f"AND T1.fk12 = T12.id AND T1.v1 < 500 AND T12.h2 = {H_VALUE} "
    "GROUP BY T12.v2",
    "SELECT DISTINCT T1.v2 FROM T0, T1 WHERE T0.fk1 = T1.id "
    "AND T1.v1 < 300 AND T0.h3 = 4",
)

KNOBS = ({},) + tuple(
    {"vis_strategy": strategy, "cross": cross}
    for strategy in ("pre", "post", "post-select", "nofilter")
    for cross in (False, True)
)
PROJECTIONS = ("project", "project-nobf", "brute-force")


def twin(seed, never_matches=False, shards=1):
    """One twin: visible values fixed, hidden values drawn from ``seed``
    (``never_matches``: no ``T12.h2`` equals the queries' constant)."""
    rng = random.Random(seed)
    h2_domain = [v for v in range(10)
                 if not (never_matches and v == H_VALUE)]
    db = (ShardedGhostDB(shards, indexed_columns=INDEXES) if shards > 1
          else GhostDB(indexed_columns=INDEXES))
    for ddl in DDL:
        db.execute(ddl)
    db.load("T12", [(i * 37 % 1000, i * 11 % 50, rng.randrange(10),
                     rng.choice(h2_domain)) for i in range(ROWS["T12"])])
    db.load("T1", [(rng.randrange(ROWS["T12"]), i * 37 % 1000,
                    i * 13 % 20, rng.randrange(10))
                   for i in range(ROWS["T1"])])
    db.load("T0", [(rng.randrange(ROWS["T1"]), i * 17 % 1000,
                    i * 7 % 30, rng.randrange(10))
                   for i in range(ROWS["T0"])])
    db.build()
    return db


def outbound(log, since):
    return [(m.kind, m.nbytes, m.description) for m in log[since:]]


def cases():
    return [(sql, knobs, projection) for sql in STATEMENTS
            for knobs in KNOBS for projection in PROJECTIONS]


def token_transcripts(db):
    out = []
    for sql, knobs, projection in cases():
        since = len(db.audit_outbound())
        stats = db.execute(sql, projection=projection, **knobs).stats
        out.append((outbound(db.audit_outbound(), since),
                    stats.bytes_to_secure))
    return out


def fleet_transcripts(fleet):
    out = []
    for sql, knobs, projection in cases():
        since = {k: len(log) for k, log in fleet.audit_outbound().items()}
        result = fleet.execute(sql, projection=projection, **knobs)
        out.append((
            {k: outbound(log, since[k])
             for k, log in fleet.audit_outbound().items()},
            [s.bytes_to_secure for s in result.shard_stats],
        ))
    return out


def batch_transcripts(db):
    out = []
    for knobs in KNOBS:
        for projection in PROJECTIONS:
            since = len(db.audit_outbound())
            batch = db.query_many(list(STATEMENTS), projection=projection,
                                  **knobs)
            out.append((outbound(db.audit_outbound(), since),
                        batch.stats.bytes_to_secure))
    return out


#: ``stats`` fields of a response that describe the caller's own result
#: (by design, like its rows) or the wall clock, and so may differ
CALLER_STATS = {"total_s", "ram_peak", "result_rows", "admission_wait_s"}


def server_transcripts(db):
    """One client prepares and executes every statement over the wire;
    per statement: outbound messages, then the response's frame fields
    an observer of the service sees besides the rows."""
    async def run():
        async with GhostServer(db) as server:
            async with await AsyncGhostClient.connect(
                    "127.0.0.1", server.port) as client:
                out = []
                for sql in STATEMENTS:
                    since = len(db.audit_outbound())
                    result = await client.exec_stmt(
                        await client.prepare(sql), ())
                    out.append((outbound(db.audit_outbound(), since),
                                result.columns, result.generations,
                                result.stats["ram_claim"], result.stats))
                return out

    return asyncio.run(run())


def assert_twins_agree(transcripts):
    """Every twin's transcript equals the first twin's, case by case."""
    first, *others = transcripts
    assert "vis_request" in repr(first)        # the check is not vacuous
    assert all(len(t) == len(first) for t in others)
    differing = sum(any(t[i] != first[i] for t in others)
                    for i in range(len(first)))
    assert differing == 0, (
        f"{differing} of {len(first)} transcripts differ between twins")


SEEDS = ((1, False), (2, False), (3, True))


def test_twins_differ_only_in_the_hidden_part():
    a, b = twin(1), twin(3, never_matches=True)
    assert a.untrusted._rows == b.untrusted._rows
    assert a.catalog.raw_rows != b.catalog.raw_rows
    grid = STATEMENTS[:6]                      # the fig10/fig12 grid
    assert any(a.execute(sql).rows for sql in grid)
    assert not any(b.execute(sql).rows for sql in grid)


def test_token_transcripts_equal_across_twins():
    assert_twins_agree([token_transcripts(twin(seed, never))
                        for seed, never in SEEDS])


def test_fleet_transcripts_equal_across_twins():
    assert_twins_agree([fleet_transcripts(twin(seed, never, shards=2))
                        for seed, never in SEEDS])


def test_batch_transcripts_equal_across_twins():
    assert_twins_agree([batch_transcripts(twin(seed, never))
                        for seed, never in SEEDS])


def test_server_frames_equal_across_twins():
    transcripts = [server_transcripts(twin(seed, never))
                   for seed, never in SEEDS]
    assert_twins_agree([[case[:4] for case in t] for t in transcripts])
    first, *others = transcripts
    differing = {key for i, case in enumerate(first)
                 for key, value in case[4].items()
                 if any(t[i][4][key] != value for t in others)}
    assert differing <= CALLER_STATS, differing - CALLER_STATS
