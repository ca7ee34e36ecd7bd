"""Unit tests for the GhostDB facade: lifecycle, stats, errors."""

import warnings
from math import fsum

import pytest

from repro import GhostDB, TokenConfig
from repro.errors import GhostDBError, SchemaError


def make_db():
    db = GhostDB()
    db.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
                   "v int, h int HIDDEN)")
    db.execute("CREATE TABLE C (id int, v int, h int HIDDEN)")
    db.load("C", [(i, i % 2) for i in range(10)])
    db.load("P", [(i % 10, i, i % 4) for i in range(50)])
    db.build()
    return db


def test_query_before_build_rejected():
    db = GhostDB()
    db.execute("CREATE TABLE X (id int, v int)")
    with pytest.raises(GhostDBError):
        db.execute("SELECT X.id FROM X")


def test_no_tables_rejected():
    db = GhostDB()
    with pytest.raises(SchemaError):
        db.load("X", [])


def test_ddl_after_load_rejected():
    db = GhostDB()
    db.execute("CREATE TABLE X (id int, v int)")
    db.load("X", [(1,)])
    with pytest.raises(SchemaError):
        db.execute("CREATE TABLE Y (id int, v int)")


def test_load_after_build_rejected():
    db = make_db()
    with pytest.raises(SchemaError):
        db.load("C", [(1, 1)])


def test_double_build_rejected():
    db = make_db()
    with pytest.raises(SchemaError):
        db.build()


def test_build_resets_cost_ledger():
    db = make_db()
    assert db.token.elapsed_s() == 0.0


def test_query_stats_shape():
    db = make_db()
    result = db.execute("SELECT P.id FROM P, C WHERE P.fk = C.id "
                      "AND C.h = 1 AND P.v < 20")
    stats = result.stats
    assert stats.total_s > 0
    assert stats.result_rows == len(result.rows)
    assert stats.bytes_to_secure > 0
    assert stats.bytes_to_untrusted > 0
    assert stats.ram_peak <= db.token.ram.capacity
    assert fsum(stats.by_operator.values()) == stats.total_s


def test_stats_are_per_query_not_cumulative():
    db = make_db()
    sql = "SELECT C.id FROM C WHERE C.h = 1"
    first = db.execute(sql).stats.total_s
    second = db.execute(sql).stats.total_s
    assert second == pytest.approx(first, rel=0.2)


def test_custom_token_config():
    db = GhostDB(config=TokenConfig(ram_bytes=32768))
    db.set_throughput(0.5)
    assert db.token.ram.capacity == 32768
    assert db.token.channel.throughput_mbps == 0.5


def test_set_throughput_changes_comm_time():
    db = make_db()
    sql = "SELECT C.id FROM C WHERE C.v < 8 AND C.h = 1"
    db.set_throughput(0.1)
    slow = db.execute(sql).stats.total_s
    db.set_throughput(10.0)
    fast = db.execute(sql).stats.total_s
    assert slow > fast


@pytest.mark.parametrize("mbps", [0, -1.5])
def test_set_throughput_refuses_a_throughput_that_is_not_positive(mbps):
    """A zero throughput would divide by zero on the next transfer and
    a negative one would price it below nothing: both are refused, and
    the channel keeps the throughput it had."""
    db = make_db()
    sql = "SELECT C.id FROM C WHERE C.v < 8 AND C.h = 1"
    before = db.execute(sql).stats.total_s
    with pytest.raises(ValueError):
        db.set_throughput(mbps)
    assert db.token.channel.throughput_mbps == 1.5
    assert db.execute(sql).stats.total_s == before


def test_result_columns_named():
    db = make_db()
    result = db.execute("SELECT P.id, C.h FROM P, C WHERE P.fk = C.id "
                      "AND C.h = 0")
    assert result.columns == ["P.id", "C.h"]


def test_explain_does_not_execute():
    db = make_db()
    before = db.token.ledger.counters.get("pages_read", 0)
    db.explain("SELECT P.id FROM P WHERE P.h = 1")
    after = db.token.ledger.counters.get("pages_read", 0)
    assert after == before


def test_storage_report_available_after_build():
    db = make_db()
    report = db.storage_report()
    assert sum(report.values()) > 0


def test_deprecated_shims_are_gone():
    """``execute()`` is the single statement entry point -- no separate
    DDL or query method beside it -- and warns about nothing."""
    db = GhostDB()
    assert [n for n in dir(db) if n.startswith(("execute", "query"))] == [
        "execute", "execute_fragment", "execute_plan", "query_many"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        db.execute("CREATE TABLE X (id int, v int, h int HIDDEN)")
        db.load("X", [(i, i % 3) for i in range(20)])
        db.build()
        result = db.execute("SELECT X.id FROM X WHERE X.h = 1")
    assert not [w for w in caught
                if issubclass(w.category, DeprecationWarning)]
    _, expected = db.reference_query("SELECT X.id FROM X WHERE X.h = 1")
    assert sorted(result.rows) == sorted(expected)


def test_ram_balanced_after_many_queries():
    db = make_db()
    for strategy in ("pre", "post", "post-select", "nofilter"):
        db.execute("SELECT P.id, C.v FROM P, C WHERE P.fk = C.id "
                 "AND C.v < 8 AND P.h = 1", vis_strategy=strategy)
    assert db.token.ram.used == 0
    db.token.ram.assert_all_freed()
