"""Fleet smoke for the maintenance surface no other suite drives:
``analyze()``, ``compaction_status()`` and ``set_throughput()`` on a
``ShardedGhostDB(N)``."""

import math

import pytest

from repro.errors import CompactionError
from repro.shard import ShardedGhostDB
from repro.workloads.synthetic import SyntheticConfig, build_synthetic


def build_fleet(shards=2):
    db = ShardedGhostDB(shards)
    db.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
               "v int, h int HIDDEN)")
    db.execute("CREATE TABLE C (id int, v int, h int HIDDEN)")
    db.load("C", [(i, i % 2) for i in range(10)])
    db.load("P", [(i % 10, i, i % 4) for i in range(60)])
    db.build()
    return db


def test_analyze_refreshes_every_shard_and_stales_cached_plans():
    fleet = build_fleet()
    sql = "SELECT P.id FROM P WHERE P.v < 20"
    session = fleet.session()
    session.query(sql)
    fleet.execute("DELETE FROM P WHERE P.v >= 50")
    before = fleet.table_generations
    summaries = fleet.analyze()
    assert set(summaries) == {0, 1}
    assert all(set(s) == {"P", "C"} for s in summaries.values())
    # per-shard P sketches cover disjoint slices that add up to the
    # live root; the replicated C is seen whole by every shard
    assert sum(s["P"]["v"]["n"] for s in summaries.values()) == 50
    assert all(s["P"]["v"]["max"] < 50 for s in summaries.values())
    assert all(s["C"]["v"]["n"] == 10 for s in summaries.values())
    assert summaries == fleet.statistics()
    # a stats refresh invalidates exactly like a data change
    after = fleet.table_generations
    assert all(after[t][1] > before[t][1] for t in after)
    drops = session.plan_cache.stale_drops
    assert session.query(sql).rows == fleet.reference_query(sql)[1]
    assert session.plan_cache.stale_drops == drops + 1


def test_compaction_status_tracks_replicated_debt():
    fleet = build_fleet()
    assert not any(s.dirty for s in fleet.compaction_status().values())
    fleet.execute("INSERT INTO C VALUES (77, 1)")
    status = fleet.compaction_status()
    assert status["C"].dirty and "C" in status["C"].describe()
    assert status == fleet.shards[0].compaction_status()
    assert fleet.compact("C").done
    assert not fleet.compaction_status()["C"].dirty


def test_set_throughput_reprices_every_shard_channel():
    fleet = build_fleet()
    sql = "SELECT P.id, P.v FROM P WHERE P.v < 40"
    fast = fleet.execute(sql)
    fleet.set_throughput(0.3)
    assert all(math.isclose(s.token.channel.throughput_mbps, 0.3)
               for s in fleet.shards)
    slow = fleet.execute(sql)
    assert slow.rows == fast.rows
    assert slow.stats.bytes_to_secure == fast.stats.bytes_to_secure
    assert slow.stats.total_s > fast.stats.total_s
    assert all(s.total_s > f.total_s
               for s, f in zip(slow.shard_stats, fast.shard_stats))


@pytest.mark.parametrize("mbps", [0, -1.5])
def test_set_throughput_refuses_a_throughput_that_is_not_positive(mbps):
    fleet = build_fleet()
    with pytest.raises(ValueError):
        fleet.set_throughput(mbps)
    assert [s.token.channel.throughput_mbps for s in fleet.shards] == \
        [1.5, 1.5]


def test_compaction_status_combines_the_partitioned_root():
    """The root's debt lives on whichever shard homes the row: the
    fleet view sums it (shard 0 alone used to answer, reporting a root
    clean while another shard held its tombstones)."""
    fleet = build_fleet(shards=4)
    gid = next(g for g in range(60) if fleet.router.shard_of(g) != 0)
    home = fleet.router.shard_of(gid)
    assert fleet.execute(f"DELETE FROM P WHERE P.v = {gid}").rows_affected == 1
    assert not fleet.shards[0].compaction_status()["P"].dirty
    assert fleet.shards[home].compaction_status()["P"].tombstones == 1
    status = fleet.compaction_status()["P"]
    assert status.dirty and status.tombstones == 1
    assert status.tombstone_log_bytes == sum(
        s.compaction_status()["P"].tombstone_log_bytes
        for s in fleet.shards)
    assert status.advisor.verdict == "proceed"      # the worst verdict
    assert "tombstones=1" in fleet.explain(
        "SELECT P.id FROM P WHERE P.v < 5", analyze=True)
    assert fleet.compact("P").done
    assert not fleet.compaction_status()["P"].dirty


def test_gather_estimate_under_a_forced_strategy_is_not_the_table():
    """A forced ``vis_strategy`` leaves the plan without a cost report;
    the gather line is priced from the cost model's cardinality
    estimate all the same, not from every live row."""
    fleet = ShardedGhostDB(2)
    fleet.execute("CREATE TABLE P (id int, v int, h int HIDDEN)")
    fleet.load("P", [(i % 100, i % 4) for i in range(2000)])
    fleet.build()
    sql = "SELECT P.id, P.v FROM P WHERE P.v = 7"      # 1 % selective
    executed = len(fleet.execute(sql).rows)
    assert executed == 20
    for knobs in ({}, {"vis_strategy": "pre"}):
        line = next(ln for ln in fleet.explain(sql, **knobs).splitlines()
                    if ln.startswith("gather merge:"))
        estimate = int(line.split("~")[1].split()[0])
        assert executed / 2 <= estimate <= executed * 2, line


@pytest.mark.parametrize("table, dml", [
    ("T0", "DELETE FROM T0 WHERE T0.v1 < 3"),
    ("T1", "INSERT INTO T1 VALUES (0, 0, 1, 1, 5)"),
], ids=["root", "replica"])
def test_compact_rejects_max_steps_below_one_on_root_and_replica(table, dml):
    """The root path used to hand ``None`` to every shard and fold the
    whole table; a replicated table crashed on a missing job.  Both
    now refuse before any shard is touched."""
    fleet = build_synthetic(SyntheticConfig(scale=0.0005), shards=2)
    fleet.execute(dml)
    assert fleet.compaction_status()[table].dirty
    for max_steps in (0, -1):
        with pytest.raises(CompactionError, match="max_steps"):
            fleet.compact(table, max_steps=max_steps)
    assert fleet.compaction_status()[table].dirty
    assert all(not s.compactions_in_flight() for s in fleet.shards)
