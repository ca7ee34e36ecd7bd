"""The Untrusted visible index seen from the database: stale entries
after a rollback, and an outbound audit log that cannot tell an index
from a scan."""

import pytest

from repro import GhostDB
from repro.errors import GhostDBError
from repro.shard import ShardedGhostDB
from repro.untrusted.engine import UntrustedEngine
from repro.workloads.queries import query_q

READ = "SELECT C.id, C.v FROM C WHERE C.v = ?"
ROW_A, ROW_B = (777, 1), (888, 0)


def build(shards=1):
    db = ShardedGhostDB(shards) if shards > 1 else GhostDB()
    db.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
               "v int, h int HIDDEN)")
    db.execute("CREATE TABLE C (id int, v int, h int HIDDEN)")
    db.load("C", [(i, i % 2) for i in range(10)])
    db.load("P", [(i % 10, i, i % 4) for i in range(60)])
    db.build()
    return db


def assert_reads_match_oracle(db):
    """``v = A.v`` must no longer find the undone row, ``v = B.v`` must
    find the row now sitting at its id."""
    for v in (ROW_A[0], ROW_B[0]):
        got = db.execute(READ, params=(v,))
        assert sorted(got.rows) == sorted(
            db.reference_query(READ.replace("?", str(v)))[1])
    assert db.execute(READ, params=(ROW_A[0],)).rows == []
    assert db.execute(READ, params=(ROW_B[0],)).rows == [(10, ROW_B[0])]


def test_undo_then_reinsert_at_the_same_id_is_not_answered_from_the_index():
    """insert A -> Vis (the index now covers A) -> undo -> insert B at
    A's id: an index kept across the truncation would answer from A."""
    db = build()
    db.execute("INSERT INTO C VALUES (?, ?)", params=ROW_A)
    assert db.execute(READ, params=(ROW_A[0],)).rows == [(10, ROW_A[0])]
    assert db.undo_last_dml() == "C"
    db.execute("INSERT INTO C VALUES (?, ?)", params=ROW_B)
    assert_reads_match_oracle(db)


def test_fleet_undo_then_reinsert_at_the_same_id(monkeypatch):
    """The same sequence through the fleet's all-or-nothing write path:
    shard 0 applies A and serves a read before shard 1 fails at its
    apply, so the undo truncates under an index that covers A."""
    fleet = build(shards=2)

    def failing_apply(checked):
        assert fleet.shards[0].execute(READ, params=(ROW_A[0],)).rows == [
            (10, ROW_A[0])]
        raise GhostDBError("second shard fails at its apply")

    monkeypatch.setattr(fleet.shards[1], "apply_dml", failing_apply)
    with pytest.raises(GhostDBError):
        fleet.execute("INSERT INTO C VALUES (?, ?)", params=ROW_A)
    monkeypatch.undo()
    assert [s.untrusted.n_rows("C") for s in fleet.shards] == [10, 10]
    fleet.execute("INSERT INTO C VALUES (?, ?)", params=ROW_B)
    # a root-free read is served by one statement-hashed shard, so ask
    # every replica as well as the fleet
    for db in (fleet, *fleet.shards):
        assert_reads_match_oracle(db)


def test_outbound_audit_log_is_identical_with_and_without_the_index(
        db, monkeypatch):
    """Query Q under every Vis strategy: same rows, same outbound
    messages (kind and bytes) and same inbound bytes whether Untrusted
    answers from its index or is forced to scan -- the index adds no
    message and no byte in either direction."""
    def run():
        stats = db.token.channel.stats
        first, inbound = len(db.audit_outbound()), stats.bytes_to_secure
        examined = db.untrusted.rows_examined
        rows = [db.execute(query_q(0.1), vis_strategy=strategy).rows
                for strategy in ("pre", "post", "post-select", "nofilter")]
        log = [(m.kind, m.nbytes, m.description)
               for m in db.audit_outbound()[first:]]
        return (rows, log, stats.bytes_to_secure - inbound,
                db.untrusted.rows_examined - examined)

    *indexed, indexed_work = run()
    monkeypatch.setattr(UntrustedEngine, "_index",
                        lambda self, table, column: None)
    *scanned, scanned_work = run()
    assert indexed == scanned
    assert {kind for kind, _, _ in indexed[1]} == {"query", "vis_request"}
    assert indexed_work < scanned_work / 5   # the two runs did differ
