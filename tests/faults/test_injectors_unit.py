"""Unit coverage of the fault injectors and the recovery machinery."""

import pickle

import pytest

from repro.core.recovery import IdempotencyLedger, RecoveryReport
from repro.errors import (FlashCorruption, PowerLoss, ShardDown,
                          ShardUnavailable)
from repro.faults import FlashFaults, FleetFaults
from repro.faults.flash import LANDINGS, NOTHING, TORN, WHOLE
from repro.flash.constants import FlashParams
from repro.flash.nand import READ_RETRIES, NandFlash

from chaos import PROBES, assert_oracle, build_pc


def _nand():
    return NandFlash(FlashParams())


# ----------------------------------------------------------------------
# NAND checksums: torn writes detected, transient flips healed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("landing", LANDINGS)
def test_torn_write_is_detected_on_read(landing):
    nand = _nand()
    faults = FlashFaults(nand, cut=(1, landing)).attach()
    nand.program_page(0, b"before the cut")
    with pytest.raises(PowerLoss):
        nand.program_page(1, b"payload-that-gets-torn")
    faults.detach()
    assert nand.failed
    nand.power_on()
    assert nand.read_page(0) == b"before the cut"
    if landing == TORN:
        # the spare-area checksum is of the *intended* bytes, so the
        # torn page can never be read back as if it were whole
        with pytest.raises(FlashCorruption):
            nand.read_page(1)
    else:
        # nothing landed (the page is still erased), or every byte did,
        # under its CRC: a page only the FTL's map makes garbage
        assert nand.read_page(1) == {
            NOTHING: b"", WHOLE: b"payload-that-gets-torn"}[landing]


def test_transient_read_flips_are_healed_by_retry():
    nand = _nand()
    nand.program_page(0, b"stable payload")
    faults = FlashFaults(nand, flip_reads=(1, 3, 4))
    faults.attach()
    # flipped attempts fail the checksum; the internal retry re-reads
    # and the checksum accepts the clean copy -- callers never see it
    for _ in range(4):
        assert nand.read_page(0) == b"stable payload"
    faults.detach()
    assert faults.flips == 3
    assert nand.read_retries == 3


def test_failed_latch_blocks_until_power_on():
    nand = _nand()
    nand.program_page(0, b"x")
    nand.failed = True
    with pytest.raises(PowerLoss):
        nand.read_page(0)
    with pytest.raises(PowerLoss):
        nand.program_page(1, b"y")
    nand.power_on()
    assert nand.read_page(0) == b"x"


def test_a_flip_on_every_retry_attempt_is_corruption():
    nand = _nand()
    nand.program_page(0, b"stable payload")
    faults = FlashFaults(nand, flip_reads=range(READ_RETRIES)).attach()
    with pytest.raises(FlashCorruption):
        nand.read_page(0)
    faults.detach()
    assert faults.flips == READ_RETRIES
    assert nand.read_page(0) == b"stable payload"


# ----------------------------------------------------------------------
# the statement journal through the public recovery surface
# ----------------------------------------------------------------------
def test_recover_rolls_back_a_cut_insert():
    db = build_pc()
    before_stats = db.statistics()
    before_gens = dict(db.table_generations)
    faults = FlashFaults(db.token.nand, cut=(0, TORN))
    faults.attach()
    with pytest.raises(PowerLoss):
        db.execute("INSERT INTO P VALUES (1, 55, 9.5)")
    faults.detach()
    report = db.recover()
    assert report.power_cycled
    assert report.rolled_back_table == "P"
    assert "rolled back" in report.describe()
    assert db.statistics() == before_stats
    assert dict(db.table_generations) == before_gens
    for sql in PROBES:
        assert_oracle(db, sql)


def test_undo_last_dml_reverts_a_committed_statement():
    db = build_pc()
    before = db.statistics()
    db.execute("INSERT INTO P VALUES (2, 77, 1.25)")
    assert db.statistics() != before
    assert db.undo_last_dml() == "P"
    assert db.statistics() == before
    # nothing left to undo
    assert db.undo_last_dml() is None
    for sql in PROBES:
        assert_oracle(db, sql)


def test_recover_on_a_healthy_database_is_a_no_op():
    db = build_pc()
    before = db.statistics()
    report = db.recover()
    assert not report.power_cycled
    assert report.rolled_back_table is None
    assert report.corrupt_pages == []
    assert report.describe() == "recovery: clean"
    assert db.statistics() == before


# ----------------------------------------------------------------------
# idempotency ledger
# ----------------------------------------------------------------------
def test_ledger_records_replays_and_evicts_fifo():
    ledger = IdempotencyLedger()
    ledger.capacity = 2
    assert ledger.seen(None) is None
    ledger.record(None, {"ok": True})          # ignored
    assert len(ledger) == 0
    ledger.record("a", {"n": 1})
    ledger.record("b", {"n": 2})
    assert ledger.seen("a") == {"n": 1}
    ledger.record("c", {"n": 3})               # evicts "a"
    assert ledger.seen("a") is None
    assert ledger.seen("c") == {"n": 3}
    rebuilt = pickle.loads(pickle.dumps(ledger))
    assert rebuilt.seen("b") == {"n": 2}
    assert rebuilt.seen("a") is None and len(rebuilt) == 2


# ----------------------------------------------------------------------
# fleet fault schedule
# ----------------------------------------------------------------------
def test_fleet_faults_kill_at_ordinal():
    faults = FleetFaults(kill_at=(1, 2))
    faults.check(0)
    faults.check(1)            # ordinal 1 < 2: still alive
    faults.check(0)
    with pytest.raises(ShardDown):
        faults.check(1)        # ordinal 3 >= 2: dies
    assert faults.killed == [1]
    assert not faults.is_up(1) and faults.is_up(0)
    faults.revive(1)
    assert faults.is_up(1)
    # the schedule is persistent: past the ordinal, touching the shard
    # kills it again until the kill rule is lifted
    faults.kill_at = None
    faults.check(1)


def test_fleet_down_from_start_and_manual_kill():
    faults = FleetFaults(down=(0,))
    with pytest.raises(ShardDown):
        faults.check(0)
    faults.kill(1)
    assert not faults.is_up(1)


def test_touch_shard_remembers_the_death():
    fleet = build_pc(shards=2)
    fleet.faults = FleetFaults(kill_at=(1, 0))
    with pytest.raises(ShardUnavailable):
        fleet._touch_shard(1)
    fleet.faults = None
    # the fleet stays degraded until recover() clears it
    with pytest.raises(ShardUnavailable):
        fleet._touch_shard(1)
    assert not fleet.fleet_health()[1]["up"]
    reports = fleet.recover()
    assert set(reports) == {0, 1}
    assert isinstance(reports[0], RecoveryReport)
    assert fleet.fleet_health()[1]["up"]


def test_root_free_select_reroutes_to_the_next_live_shard():
    """A root-free SELECT reads replicated tables only, so when its
    home shard is dead the fleet answers from the next live one --
    oracle-identically -- instead of failing the statement."""
    fleet = build_pc(shards=3)
    sql = "SELECT C.id, C.w FROM C WHERE C.h = 2"
    home = fleet.router.shard_for_statement(sql)
    assert fleet.plan_query(sql).shard_id == home
    _, expected = fleet.reference_query(sql)
    assert fleet.execute(sql).rows == expected          # healthy fleet

    fleet.faults = FleetFaults(down=(home,))
    survivor = (home + 1) % 3
    asked_before = len(fleet.audit_outbound()[survivor])
    result = fleet.execute(sql)
    assert result.rows == expected
    assert len(result.shard_stats) == 1
    # the next live shard did the work; the dead one stayed untouched
    assert len(fleet.audit_outbound()[survivor]) > asked_before
    health = fleet.fleet_health()
    assert not health[home]["up"]
    assert all(health[k]["up"] for k in range(3) if k != home)
    # a scatter still needs every shard: it fails and names the dead one
    with pytest.raises(ShardUnavailable, match=f"shard {home}"):
        fleet.execute("SELECT P.id FROM P WHERE P.v < 5")

    # revived + recovered, the home shard serves the statement again
    fleet.faults.revive(home)
    assert set(fleet.recover()) == {0, 1, 2}
    assert fleet.fleet_health()[home]["up"]
    asked_before = len(fleet.audit_outbound()[home])
    assert fleet.execute(sql).rows == expected
    assert len(fleet.audit_outbound()[home]) > asked_before
    for probe in PROBES:
        assert_oracle(fleet, probe)
