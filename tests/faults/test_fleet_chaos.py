"""Fleet-lane chaos: shards dying mid-statement under random DML.

Every Hypothesis example restores a twin pair of two-shard fleets and
drives a random statement schedule into one of them while a
:class:`FleetFaults` schedule kills a random shard at a random touch
ordinal.  The degradation contract under test:

* a statement aborted by a shard death leaves *every* shard at its
  pre-statement generations (all-or-nothing: partial applications are
  undone before the error surfaces);
* the fleet remembers the death (``fleet_health``) until
  :meth:`recover` revives it;
* statements that do commit keep the fleet row- and
  statistics-identical to a never-faulted twin;
* the no-leak audit holds on every shard throughout.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ghostdb import GhostDB
from repro.errors import GhostDBError, ShardUnavailable
from repro.faults import FleetFaults

from chaos import (PROBES, assert_no_leak, assert_oracle,
                   assert_rows_identical, chaos_examples, mix)

CHAOS_SETTINGS = dict(deadline=None, derandomize=True, database=None,
                      suppress_health_check=[
                          HealthCheck.too_slow,
                          HealthCheck.function_scoped_fixture])


def _random_op(rng):
    r = rng.random()
    if r < 0.30:
        return ("INSERT INTO P VALUES (?, ?, ?)",
                (rng.randrange(10), rng.randrange(100),
                 rng.random() * 30))
    if r < 0.50:
        return ("INSERT INTO C VALUES (?, ?)",
                (rng.randrange(8), rng.randrange(6)))
    if r < 0.80:
        return ("DELETE FROM P WHERE P.v = ?", (rng.randrange(100),))
    # usually RESTRICT-blocked (C rows are referenced by P): the
    # two-phase delete must abort identically on both twins
    return ("DELETE FROM C WHERE C.w = ?", (rng.randrange(6),))


def _gens(fleet):
    return [dict(s.table_generations) for s in fleet.shards]


@settings(max_examples=chaos_examples(60), **CHAOS_SETTINGS)
@given(st.integers(min_value=0, max_value=10**6))
def test_shard_deaths_abort_atomically_and_recover(fleet_image, seed):
    rng = random.Random(mix(seed))
    fleet = GhostDB.restore(fleet_image)
    twin = GhostDB.restore(fleet_image)
    n = len(fleet.shards)

    for _ in range(rng.randint(3, 6)):
        sql, params = _random_op(rng)
        before = _gens(fleet)
        if rng.random() < 0.5:
            fleet.faults = FleetFaults(
                kill_at=(rng.randrange(n), rng.randrange(0, 8)))
        try:
            fleet.execute(sql, params=params)
            committed = True
        except ShardUnavailable:
            committed = False
            # all-or-nothing: no shard moved past its pre-statement
            # generations, and the fleet remembers the dead shard
            assert _gens(fleet) == before
            health = fleet.fleet_health()
            assert any(not h["up"] for h in health.values())
        except GhostDBError:
            committed = False
            # deterministic statement error (RESTRICT): the twin must
            # refuse the same statement, and nothing moved
            with pytest.raises(GhostDBError):
                twin.execute(sql, params=params)
            assert _gens(fleet) == before
        fleet.faults = None
        if any(not h["up"] for h in fleet.fleet_health().values()):
            fleet.recover()
            assert all(h["up"] for h in fleet.fleet_health().values())
        if committed:
            twin.execute(sql, params=params)
            assert_oracle(fleet, rng.choice(PROBES))

    assert fleet.statistics() == twin.statistics()
    assert_rows_identical(fleet, twin)
    assert_no_leak(fleet)


@settings(max_examples=chaos_examples(20), **CHAOS_SETTINGS)
@given(st.integers(min_value=0, max_value=10**6))
def test_scatter_and_compaction_name_the_dead_shard(fleet_image, seed):
    rng = random.Random(mix(seed) + 5)
    fleet = GhostDB.restore(fleet_image)
    dead = rng.randrange(len(fleet.shards))
    fleet.faults = FleetFaults(kill_at=(dead, 0))
    before = _gens(fleet)

    # a scatter query fails cleanly, naming the dead shard
    with pytest.raises(ShardUnavailable) as exc:
        fleet.execute(PROBES[0])
    assert str(dead) in str(exc.value)

    # a compaction preflight over the dead shard aborts with no shard
    # touched past its pre-statement generations
    with pytest.raises(ShardUnavailable):
        fleet.compact("P")
    assert _gens(fleet) == before

    fleet.faults = None
    fleet.recover()
    assert all(h["up"] for h in fleet.fleet_health().values())
    for sql in PROBES:
        assert_oracle(fleet, sql)
    assert_no_leak(fleet)


def test_root_insert_rolls_back_when_its_second_shard_dies_at_apply(
        fleet_image):
    """A multi-row root INSERT spans shards; the shard written first
    must be undone when the next one dies at its apply touch."""
    fleet = GhostDB.restore(fleet_image)
    n_rows = 4
    start = fleet._next_root_gid
    targets = list(dict.fromkeys(
        fleet.router.shard_of(start + i) for i in range(n_rows)))
    assert len(targets) >= 2
    first, second = targets[:2]
    before = _gens(fleet)
    maps_before = [list(m) for m in fleet._root_maps]
    # touches: one probe per target, one per check, then one per apply
    fleet.faults = FleetFaults(kill_at=(second, 2 * len(targets) + 1))
    sql = "INSERT INTO P VALUES " + ", ".join(["(?, ?, ?)"] * n_rows)
    params = [x for i in range(n_rows) for x in (i % 10, 900 + i, 1.5)]
    with pytest.raises(ShardUnavailable):
        fleet.execute(sql, params=params)
    assert fleet.faults.killed == [second]
    assert fleet.faults.touches == 2 * len(targets) + 2   # at its apply
    assert _gens(fleet)[first] == before[first]       # undone
    assert _gens(fleet) == before
    assert fleet._root_maps == maps_before
    assert fleet._next_root_gid == start

    fleet.faults.kill_at = None          # disarm, then bring it back
    fleet.faults.revive(second)
    fleet.recover()
    assert all(h["up"] for h in fleet.fleet_health().values())
    for probe in PROBES + ("SELECT P.id FROM P WHERE P.v >= 900",):
        assert_oracle(fleet, probe)
    assert fleet.execute("SELECT P.id FROM P WHERE P.v >= 900").rows == []
    assert_no_leak(fleet)


@pytest.mark.parametrize("sql, params", [
    ("INSERT INTO C VALUES (?, ?)", (3, 4)),          # replicated insert
    ("DELETE FROM P WHERE P.v < ?", (50,)),           # root delete
    ("DELETE FROM C WHERE C.w = ?", (99,)),           # root-referenced
])
@pytest.mark.parametrize("step", ["check", "apply"])
def test_a_shard_dying_at_check_or_apply_leaves_no_shard_moved(
        fleet_image, sql, params, step):
    """The touch rule: every target is probed, touched again before its
    charged check and again before its apply.  A shard dying at its
    check stops the statement before anything mutated; one dying at its
    apply rolls back the shards that already applied."""
    fleet = GhostDB.restore(fleet_image)
    n = len(fleet.shards)
    last = n - 1
    before = _gens(fleet)
    # ordinals: probes 0..n-1, checks n..2n-1, applies 2n..3n-1
    ordinal = {"check": n, "apply": 2 * n}[step] + last
    fleet.faults = FleetFaults(kill_at=(last, ordinal))
    with pytest.raises(ShardUnavailable):
        fleet.execute(sql, params=params)
    assert fleet.faults.killed == [last]
    assert fleet.faults.touches == ordinal + 1
    assert _gens(fleet) == before

    fleet.faults.kill_at = None
    fleet.faults.revive(last)
    fleet.recover()
    for probe in PROBES:
        assert_oracle(fleet, probe)
    # the statement goes through once the shard is back
    fleet.execute(sql, params=params)
    assert all(g != b for g, b in zip(_gens(fleet), before))
    assert_no_leak(fleet)
