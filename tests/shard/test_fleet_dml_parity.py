"""A shard's DML charge is the token's.

The fleet's write path runs the token's own check / apply steps, so
every shard's part of a fleet statement must cost -- ``QueryStats`` and
cost ledger, compared with ``==`` -- and send -- the per-channel audit
log -- exactly what the same bound statement costs and sends on a
standalone ``GhostDB`` holding that shard's rows.  The standalone twins
are the shards of the fleet's restored image, driven as plain tokens.
"""

import pytest

from repro import GhostDB
from repro.errors import GhostDBError
from repro.shard import ShardedGhostDB

N_SHARDS = 3


def build_fleet():
    fleet = ShardedGhostDB(N_SHARDS,
                           indexed_columns={"C": ("h",), "P": ("hp",)})
    fleet.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
                  "v int, hp int HIDDEN)")
    fleet.execute("CREATE TABLE C (id int, fk int HIDDEN REFERENCES L, "
                  "h int HIDDEN, w int)")
    fleet.execute("CREATE TABLE L (id int, u int)")
    fleet.load("L", [(i,) for i in range(4)])
    fleet.load("C", [(i % 4, i % 3, i) for i in range(12)])
    # C rows 0..8 are referenced by several P rows, C row 10 by exactly
    # one (global id 40), C rows 9 and 11 by none
    fleet.load("P", [(10 if i == 40 else i % 9, i, i % 5)
                     for i in range(90)])
    fleet.build()
    return fleet


@pytest.fixture()
def twins(tmp_path):
    """A fleet and, per shard, a standalone token holding its rows."""
    fleet = build_fleet()
    path = str(tmp_path / "fleet.img")
    fleet.snapshot(path)
    return fleet, GhostDB.restore(path).shards


def audit(db, since=0):
    return [(m.kind, m.nbytes, m.description)
            for m in db.audit_outbound()[since:]]


def run_on_both(fleet, standalone, sql, monkeypatch):
    """Execute ``sql`` on the fleet, then each shard's part of it on
    that shard's standalone twin; returns ``{shard: (fleet-side
    result, standalone result)}``."""
    parts = {}
    for k, shard in enumerate(fleet.shards):
        def spy(checked, k=k, apply=shard.apply_dml):
            result = apply(checked)
            parts[k] = (checked.bound, result)
            return result
        monkeypatch.setattr(shard, "apply_dml", spy)
    marks = [len(s.audit_outbound()) for s in fleet.shards]
    fleet.execute(sql)
    monkeypatch.undo()
    out = {}
    for k, (bound, result) in parts.items():
        alone = standalone[k].run_dml(bound)
        assert audit(fleet.shards[k], marks[k]) == \
            audit(standalone[k], marks[k]), (sql, k)
        out[k] = (result, alone)
    return out


STATEMENTS = [
    # root INSERT: every shard gets its slice of the rows
    ("INSERT INTO P VALUES " + ", ".join(
        f"({i % 9}, {500 + i}, {i % 5})" for i in range(7)),
     None),
    ("INSERT INTO L VALUES (77)", N_SHARDS),          # replicated INSERT
    ("DELETE FROM P WHERE P.v < 30", N_SHARDS),       # root DELETE
    ("DELETE FROM L WHERE L.u = 77", N_SHARDS),       # replicated leaf
    ("DELETE FROM C WHERE C.w = 11", N_SHARDS),       # root-referenced
]


def test_every_shards_part_costs_and_sends_what_a_token_would(
        twins, monkeypatch):
    fleet, standalone = twins
    for sql, n_targets in STATEMENTS:
        parts = run_on_both(fleet, standalone, sql, monkeypatch)
        if n_targets is None:        # the slices cover the statement
            assert len(parts) > 1
            assert sum(r.rows_affected for r, _ in parts.values()) == 7
        else:
            assert len(parts) == n_targets
        for k, (in_fleet, alone) in parts.items():
            assert in_fleet.rows_affected == alone.rows_affected, (sql, k)
            assert in_fleet.stats == alone.stats, (sql, k)
    for k, shard in enumerate(fleet.shards):
        assert shard.statistics() == standalone[k].statistics()
        assert shard.token.ledger.snapshot() == \
            standalone[k].token.ledger.snapshot()


def test_a_restrict_violation_one_shard_sees_charges_every_check(twins):
    """C row 10 is referenced by one root row, so one shard refuses.
    Every shard still ran its charged check -- what a channel carries
    does not say which shard refused -- and no shard applied."""
    fleet, standalone = twins
    sql = "DELETE FROM C WHERE C.w = 10"
    home = fleet.router.shard_of(40)
    gens = [dict(s.table_generations) for s in fleet.shards]
    with pytest.raises(GhostDBError, match="still referenced"):
        fleet.execute(sql)
    assert [dict(s.table_generations) for s in fleet.shards] == gens
    refused = []
    for k, alone in enumerate(standalone):
        try:
            alone.execute(sql)
            # this shard's slice would have let the row go: the twin
            # applied, the shard only checked -- undo to compare
            alone.undo_last_dml()
        except GhostDBError:
            refused.append(k)
        assert audit(fleet.shards[k]) == audit(alone), k
    assert refused == [home]
    # the refusing shard stopped where its standalone twin stopped
    assert fleet.shards[home].token.ledger.snapshot() == \
        standalone[home].token.ledger.snapshot()
