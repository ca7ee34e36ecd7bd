"""A SELECT that fails mid-pipeline leaves the token as it found it.

An 8 KB token cannot run the three-table join below: ``Store`` holds
one page buffer per carried table and Merge needs the rest, so the
executor raises ``RamExhausted`` (documented: the plan does not fit).
That failure used to strand the ``store P/C/D`` builders -- three of
the token's four buffers and their temporaries -- for good: the next,
perfectly small statement raised too, and ``recover()`` (which only
power-cycles RAM after a latched NAND fault) reclaimed nothing.
"""

import pytest

from repro import GhostDB
from repro.errors import GhostDBError, PowerLoss, RamExhausted
from repro.faults.flash import TORN, FlashFaults
from repro.hardware.token import TokenConfig
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

SMALL = "SELECT C.id, C.w FROM C WHERE C.h = 3"
JOIN = ("SELECT P.id, C.w, D.x FROM P, C, D "
        "WHERE P.fk = C.id AND C.fd = D.id AND P.hp < 60")

KNOBS = [{}] + [
    {"vis_strategy": strategy, "cross": cross}
    for strategy in ("pre", "post", "post-select", "nofilter")
    for cross in (False, True)
]


def build(ram_bytes):
    db = GhostDB(config=TokenConfig(ram_bytes=ram_bytes),
                 indexed_columns={"P": ("hp",), "C": ("h",), "D": ()})
    db.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
               "v int, hp int HIDDEN)")
    db.execute("CREATE TABLE C (id int, fd int HIDDEN REFERENCES D, "
               "h int HIDDEN, w int)")
    db.execute("CREATE TABLE D (id int, x int)")
    db.load("D", [(i,) for i in range(10)])
    db.load("C", [(i % 10, i % 7, i) for i in range(40)])
    db.load("P", [(i % 40, i % 100, i * 13 % 97) for i in range(4000)])
    db.build()
    return db


def footprint(db):
    token = db.token
    return (token.store.n_files, token.ftl.mapped_pages(), token.ram.used)


def test_a_read_that_exhausts_ram_leaves_the_token_in_service():
    db = build(8192)
    assert footprint(db) == (16, 66, 0)
    assert len(db.execute(SMALL).rows) == 6
    for _ in range(2):                  # a second failure fares no worse
        with pytest.raises(RamExhausted):
            db.execute(JOIN)
        assert footprint(db) == (16, 66, 0)
    # no recover() in between: the small statement just answers
    assert db.execute(SMALL).rows == db.reference_query(SMALL)[1]


def test_the_join_answers_once_it_fits():
    db = build(10240)
    rows = db.execute(JOIN).rows
    assert len(rows) == 2475
    assert rows == db.reference_query(JOIN)[1]


@pytest.fixture(scope="module", params=[8192, 10240, 12288])
def tight_db(request):
    return build(request.param)


@pytest.mark.parametrize("knobs", KNOBS, ids=lambda k: "-".join(
    str(v) for v in k.values()) or "auto")
def test_every_plan_answers_or_fails_cleanly(tight_db, knobs):
    """Under auto and every forced strategy, at every RAM size: the
    statement pair either equals the oracle or raises, and whichever it
    did, RAM, files and mapped pages are where they were and the small
    statement still answers."""
    db = tight_db
    before = footprint(db)
    for sql in (JOIN, SMALL):
        try:
            rows = db.execute(sql, **knobs).rows
        except GhostDBError:
            pass
        else:
            assert rows == db.reference_query(sql)[1]
        db.token.ram.assert_all_freed()
        assert footprint(db) == before
    assert db.execute(SMALL).rows == db.reference_query(SMALL)[1]


#: a read that spills: its ORDER BY writes sort runs to flash
SPILL = ("SELECT T0.id, T1.v1 FROM T0, T1 WHERE T0.fk1 = T1.id "
         "AND T1.v1 < 500 ORDER BY T1.v1, T0.id")


def test_a_read_cut_by_power_loss_is_recovered_and_leaks_nothing():
    """A power cut mid-read leaves its temporaries half written; the
    dead NAND refuses their frees, so ``recover()`` owns them: after
    each cut and recovery the token holds the files and pages it held
    before, and the read answers."""
    db = build_synthetic(SyntheticConfig(scale=0.0005, full_indexing=True))
    expected = db.reference_query(SPILL)[1]
    assert db.execute(SPILL).rows == expected
    before = footprint(db)
    for k in range(4):
        faults = FlashFaults(db.token.nand, cut=(k, TORN))
        faults.attach()
        with pytest.raises(PowerLoss):
            db.execute(SPILL)
        faults.detach()
        assert db.recover().power_cycled
        assert footprint(db) == before
    assert db.execute(SPILL).rows == expected
