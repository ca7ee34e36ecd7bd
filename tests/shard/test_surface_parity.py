"""The two database facades cannot drift silently.

``ShardedGhostDB`` is deliberately not a ``GhostDB`` subclass, so
nothing but this test keeps the fleet answering the token's public
surface: every public method of ``GhostDB`` is on the fleet with a
compatible signature, or is named below as a single-token operation
(docs/ARCHITECTURE.md, "Sharding", lists the same names).
"""

import inspect

import pytest

from repro.core.ghostdb import GhostDB
from repro.errors import GhostDBError
from repro.shard.fleet import ShardedGhostDB
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

#: single-token operations that would be silently wrong on a fleet
TOKEN_ONLY = (
    "execute_fragment",       # a fragment is what a fleet hands a shard
    "check_dml",              # the two DML steps the fleet's write
    "apply_dml",              # path runs on each shard
    "undo_last_dml",          # the fleet's abort path, per shard
    "keep_journal",           # StatementJournal's hand-over
    "query_many",             # batching amortizes one token's channel
    "compactions_in_flight",  # the shard images ask each shard
    "restore",                # GhostDB.restore is the one entry point;
                              # it dispatches on the image kind
)

#: token parameters a fleet method may lack, per method
TOKEN_ONLY_PARAMETERS = {
    "execute_plan": {"vis_seed"},   # seeds a batch's Vis prefetch
    "from_meta": {"blob"},          # a fleet manifest has no page blob
}


def public_methods(cls):
    return {name: member for name, member in inspect.getmembers(cls)
            if not name.startswith("_") and callable(member)}


def test_every_token_method_is_on_the_fleet_or_named_token_only():
    token, fleet = public_methods(GhostDB), public_methods(ShardedGhostDB)
    assert sorted(set(token) - set(fleet)) == sorted(TOKEN_ONLY)
    for name in set(token) & set(fleet):
        wanted = set(inspect.signature(token[name]).parameters)
        offered = set(inspect.signature(fleet[name]).parameters)
        missing = wanted - offered - TOKEN_ONLY_PARAMETERS.get(name, set())
        assert not missing, f"ShardedGhostDB.{name} lacks {sorted(missing)}"
    # properties too: what a Session reads off its database
    for name, member in inspect.getmembers(GhostDB):
        if isinstance(member, property) and not name.startswith("_"):
            assert isinstance(
                inspect.getattr_static(ShardedGhostDB, name), property)


def test_a_fleet_session_refuses_batches():
    """Batching amortizes one token's channel: a fleet's session says
    so in both batched shapes (the fleet's own ``FleetSession``)."""
    fleet = build_synthetic(SyntheticConfig(scale=0.0005), shards=2)
    session = fleet.session()
    sql = "SELECT T0.id FROM T0 WHERE T0.v1 < ?"
    for batch in (lambda: session.query_many(sql, [(3,), (5,)]),
                  lambda: session.query_many([sql.replace("?", "3")]),
                  lambda: session.prepare(sql).execute_many([(3,)])):
        with pytest.raises(GhostDBError, match="single token"):
            batch()
    assert fleet.ram_capacity == sum(s.ram_capacity for s in fleet.shards)
