"""A statement programs each flash page once.

A k-row DELETE appends its k tombstones (4 bytes each) to the table's
log in one tail append, and a k-row INSERT appends its rows to each
file it extends -- the heap, the SKT, every climbing index's delta log
-- in one tail append per file.  So the tail page of a file is
re-programmed at most once per statement and every further page is
programmed once: ⌈bytes / page⌉ + 1 programs per file at most.
"""

from math import ceil

import pytest

from repro import GhostDB
from repro.core.dml import DML_LABEL
from repro.flash.constants import ID_SIZE
from repro.flash.stats import WRITE


def make_db(n_parents):
    db = GhostDB()
    db.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
               "v int, h int HIDDEN)")
    db.execute("CREATE TABLE C (id int, v int, h int HIDDEN)")
    db.execute("INSERT INTO C VALUES " +
               ", ".join(f"({i}, {i % 2})" for i in range(10)))
    db.execute("INSERT INTO P VALUES " +
               ", ".join(f"({i % 10}, {i}, {i % 4})"
                         for i in range(n_parents)))
    db.build()
    return db


def file_bytes(db):
    """Each live file's payload bytes."""
    return {name: f.n_bytes for name, f in db.token.store._files.items()}


def dml_programs(db, sql):
    """Pages ``sql`` programs in its DML step (a DELETE's predicate
    evaluation, which may spill its id list, is not part of it), and
    the oracle still agrees afterwards."""
    before = db.token.ledger.snapshot()
    db.execute(sql)
    interval = db.token.ledger.snapshot() - before
    probe = "SELECT P.id, C.v FROM P, C WHERE P.fk = C.id AND P.h < 3"
    assert sorted(db.execute(probe).rows) == \
        sorted(db.reference_query(probe)[1])
    return sum(ops for (label, component, _), (ops, _)
               in interval.cells.items()
               if label == DML_LABEL and component == WRITE)


def test_a_k_row_delete_programs_at_most_one_page_per_page_it_fills():
    """DELETEs of 1 to 1 500 rows, the first opening the log, later
    ones starting on a partly filled tail and crossing pages."""
    db = make_db(4000)
    page = db.token.ftl.params.page_size
    lo = 0
    for k in (1, 7, 500, 1500, 30, 1000):
        log_bytes = db.catalog.tombstone_log_bytes("P")
        n = dml_programs(
            db, f"DELETE FROM P WHERE P.v >= {lo} AND P.v < {lo + k}")
        assert db.catalog.tombstone_log_bytes("P") == \
            log_bytes + ID_SIZE * k
        assert n <= ceil(ID_SIZE * k / page) + 1, k
        lo += k


@pytest.mark.parametrize("k", [1, 2, 170, 600, 1500])
def test_a_k_row_insert_programs_at_most_one_page_per_page_it_fills(k):
    """Every file the INSERT extends costs ⌈its new bytes / page⌉ + 1
    programs at most; one row costs exactly one per file."""
    db = make_db(1000)
    page = db.token.ftl.params.page_size
    before = file_bytes(db)
    n = dml_programs(db, "INSERT INTO P VALUES " + ", ".join(
        f"({i % 10}, {5000 + i}, {i % 4})" for i in range(k)))
    grown = {name: n_bytes - before.get(name, 0)
             for name, n_bytes in file_bytes(db).items()
             if n_bytes != before.get(name, 0)}
    assert len(grown) >= 2 and min(grown.values()) > 0
    assert n <= sum(ceil(added / page) + 1 for added in grown.values())
    if k == 1:
        assert n == len(grown)
