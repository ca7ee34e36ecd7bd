"""Shared helpers for the fault-injection suites.

Lives outside ``conftest.py`` so test modules can import the helpers
directly (the repo's test tree is packageless).  Nothing here is
sampled: the mini database is built from arithmetic, not a random
draw, and every injector names its fault by an ordinal, so a failing
case reruns identically by its name alone.
"""

from repro.core.ghostdb import GhostDB
from repro.hardware.channel import UsbChannel
from repro.shard.fleet import ShardedGhostDB

#: probes every fault case answers; each is checked against the
#: reference oracle
PROBES = (
    "SELECT P.id, C.w FROM P, C WHERE P.fk = C.id AND C.h = 1 "
    "AND P.v < 60",
    "SELECT C.id FROM C WHERE C.h = 2",
    "SELECT P.id FROM P ORDER BY P.hp LIMIT 7",
)


def build_pc(shards=1, config=None):
    """The mini parent/child database the fault suites mutate, on one
    token or a fleet of ``shards``.

    ``P`` is the root (it holds the fk), ``C`` the referenced table;
    both carry one hidden column so the no-leak audit is load-bearing.
    """
    indexes = {"C": ("h",), "P": ("hp",)}
    db = (ShardedGhostDB(shards, config=config, indexed_columns=indexes)
          if shards > 1 else
          GhostDB(config=config, indexed_columns=indexes))
    db.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
               "v int, hp float HIDDEN)")
    db.execute("CREATE TABLE C (id int, h int HIDDEN, w int)")
    n_c = 10
    db.load("C", [(3 * i % 8, 5 * i % 6) for i in range(n_c)])
    db.load("P", [(7 * i % n_c, 37 * i % 100, 11 * i % 60 / 2)
                  for i in range(80)])
    db.build()
    return db


def file_shapes(db):
    """Each live flash file of a token's store: its page count and
    tail fill (a rollback cuts every file back to these)."""
    return {name: (f.n_pages, f.tail_fill)
            for name, f in db.token.store._files.items()}


def assert_oracle(db, sql):
    """One probe must match the reference oracle exactly."""
    result = db.execute(sql)
    _, expected = db.reference_query(sql)
    if "ORDER BY" in sql:
        assert result.rows == expected, sql
    else:
        assert sorted(result.rows) == sorted(expected), sql


def assert_no_leak(db):
    """Nothing outside the safe outbound kinds ever left the token."""
    safe = UsbChannel.SAFE_OUTBOUND_KINDS
    logs = db.audit_outbound()
    if isinstance(logs, dict):           # a fleet: one log per shard
        for log in logs.values():
            assert all(m.kind in safe for m in log)
    else:
        assert all(m.kind in safe for m in logs)
