"""The simulated clock: what a statement is reported to cost is a
function of what it did.

The ledger stores integer counts and derives every second from them at
read time, so a ``QueryStats`` cannot depend on what the token ran
before the statement (history), on the order statements ran in, or on
how the interval was summed -- all asserted here with ``==``, never
with a tolerance.
"""

import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GhostDB
from repro.errors import ImageError
from repro.persist import IMAGE_VERSION
from repro.workloads.queries import (query_q, query_q_projections,
                                     query_q_with_hidden_projection)
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

CFG = SyntheticConfig(scale=0.002, full_indexing=True)

ROOT_FREE = ("SELECT T1.id, T12.v1 FROM T1, T12 WHERE T1.fk12 = T12.id "
             "AND T12.h2 = 3 AND T1.v1 < 100")

#: the statements whose cost is compared across histories: the
#: drifting probe of the issue (Cross-Post query Q) and one statement
#: a fleet runs whole on a single shard
CASES = {
    "probe": (query_q(0.05), dict(vis_strategy="post", cross=True)),
    "root_free": (ROOT_FREE, {}),
}

#: both strategies, cross on and off, projection, top-k, and last (the
#: slow one) an ORDER BY that spills
SHAPES = list(CASES.values()) + [
    (query_q(0.05), dict(vis_strategy="pre", cross=True)),
    (query_q(0.1), dict(vis_strategy="post", cross=False)),
    (query_q_with_hidden_projection(0.05),
     dict(vis_strategy="pre", cross=True, projection="project")),
    (query_q_projections(0.01, 3), {}),
    ("SELECT T2.id FROM T2 WHERE T2.v1 < 50 ORDER BY T2.v1 LIMIT 5", {}),
    ("SELECT T0.id, T0.v2 FROM T0 WHERE T0.v1 < 300 ORDER BY T0.v2",
     dict(order_method="external-sort")),
]


def run(db, case):
    sql, knobs = case
    return db.execute(sql, **knobs).stats


@pytest.fixture(scope="module")
def fresh():
    """Each case's stats on a database that has run nothing else."""
    db = build_synthetic(CFG)
    return {name: run(db, case) for name, case in CASES.items()}


@pytest.fixture(scope="module")
def db():
    """The database the tests below pile history onto."""
    return build_synthetic(CFG)


def assert_costs_as_fresh(db, fresh):
    for name, case in CASES.items():
        assert run(db, case) == fresh[name], name


# ---------------------------------------------------------------------------
# (i) history independence
# ---------------------------------------------------------------------------

def test_200_executions_report_one_cost(db):
    """The issue's probe: one prepared statement, 200 times in a row."""
    sql, knobs = CASES["probe"]
    stmt = db.prepare(sql, **knobs)
    seen = {repr(stmt.execute().stats) for _ in range(200)}
    assert len(seen) == 1


def test_cost_after_200_other_statements(db, fresh):
    others = SHAPES[2:-1]
    for i in range(200):
        run(db, others[i % len(others)])
    assert_costs_as_fresh(db, fresh)


def test_cost_after_dml_and_compaction_of_an_unrelated_table(db, fresh):
    db.execute("INSERT INTO T2 VALUES (5000, 3)")
    db.execute("INSERT INTO T2 VALUES (5000, 4)")
    assert db.execute("DELETE FROM T2 WHERE T2.v1 = 5000").rows_affected == 2
    assert db.compact("T2").state == "done"
    assert db.token.ledger.counters["compaction_steps"] > 0
    assert_costs_as_fresh(db, fresh)


def test_cost_after_snapshot_and_restore(db, fresh, tmp_path):
    path = str(tmp_path / "clock.img")
    db.snapshot(path)
    restored = GhostDB.restore(path)
    assert restored.token.ledger.snapshot() == db.token.ledger.snapshot()
    assert_costs_as_fresh(restored, fresh)


def test_root_free_statement_costs_the_same_on_a_fleet(fresh):
    fleet = build_synthetic(CFG, shards=2)
    result = fleet.execute(ROOT_FREE)
    assert len(result.shard_stats) == 1
    assert result.stats == fresh["root_free"]


# ---------------------------------------------------------------------------
# (ii) order independence
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def in_list_order(db):
    """Every shape's stats and the ledger they leave behind, run in
    ``SHAPES`` order from a zeroed ledger (plans cached beforehand, so
    no order pays for planning)."""
    for case in SHAPES:
        run(db, case)
    db.token.reset_costs()
    stats = [run(db, case) for case in SHAPES]
    assert stats[-1].counters["sort_spill_runs"] >= 2
    return stats, db.token.ledger.snapshot()


@settings(max_examples=10, deadline=None)
@given(order=st.permutations(range(len(SHAPES))))
def test_statement_costs_do_not_depend_on_execution_order(
        db, in_list_order, order):
    expected_stats, expected_ledger = in_list_order
    db.token.reset_costs()
    for i in order:
        assert run(db, SHAPES[i]) == expected_stats[i], SHAPES[i][0]
    assert db.token.ledger.snapshot() == expected_ledger


# ---------------------------------------------------------------------------
# (iii) representation
# ---------------------------------------------------------------------------

def test_ledger_persists_integers_only(db, tmp_path):
    db.execute("INSERT INTO T0 VALUES (1, 2, 3, 4, 5)")
    db.execute("DELETE FROM T0 WHERE T0.v1 = 3 AND T0.v2 = 4")
    db.compact("T0")
    original = db.token.channel.throughput_mbps
    db.set_throughput(10.0)
    run(db, SHAPES[0])
    db.set_throughput(original)
    run(db, SHAPES[-1])

    meta = db.token.ledger.snapshot()
    assert meta.cells and meta.events
    for ops, nbytes in meta.cells.values():
        assert type(ops) is int and type(nbytes) is int
    assert all(type(n) is int for n in meta.events.values())
    assert {price for _, component, price in meta.cells
            if component == "comm"} == {original, 10.0}

    adopted = pickle.loads(pickle.dumps(db.token.ledger))
    assert adopted.snapshot() == meta
    assert adopted.by_label_s() == db.token.ledger.by_label_s()

    path = tmp_path / "ledger.img"
    db.snapshot(str(path))
    assert GhostDB.restore(str(path)).token.ledger.snapshot() == meta


def _with_version(db, tmp_path, version):
    path = tmp_path / "current.img"
    db.snapshot(str(path))
    raw = path.read_bytes()
    old = tmp_path / f"v{version}.img"
    old.write_bytes(raw[:8] + struct.pack("!I", version) + raw[12:])
    return str(old)


def test_version_3_image_is_refused(db, tmp_path):
    assert IMAGE_VERSION == 6
    with pytest.raises(ImageError, match="version 3 .*version 6"):
        GhostDB.restore(_with_version(db, tmp_path, 3))


def test_version_4_image_is_refused(db, tmp_path):
    """A version-4 image pickles its tables without the name -> position
    map, so restore refuses it instead of the first insert failing."""
    with pytest.raises(ImageError, match="version 4 .*version 6"):
        GhostDB.restore(_with_version(db, tmp_path, 4))


def test_version_5_image_is_refused(db, tmp_path):
    """A version-5 image holds each class's hand-written metadata
    dict, not the pickled database; restore refuses it by version."""
    with pytest.raises(ImageError, match="version 5 .*version 6"):
        GhostDB.restore(_with_version(db, tmp_path, 5))
