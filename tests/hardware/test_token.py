"""Unit tests for the token facade and the cost ledger."""

import pytest

from repro.flash.constants import FlashParams
from repro.flash.stats import COMM, READ, WRITE, CostLedger
from repro.hardware.token import SecureToken, TokenConfig


def test_default_token_matches_paper():
    token = SecureToken()
    assert token.ram.capacity == 65536
    assert token.page_size == 2048
    assert token.ids_per_page == 512
    assert token.config.n_buffers == 32


def test_custom_config():
    token = SecureToken(TokenConfig(
        ram_bytes=32768, throughput_mbps=10.0,
        flash=FlashParams(page_size=1024, n_blocks=64),
    ))
    assert token.ram.capacity == 32768
    assert token.page_size == 1024
    assert token.channel.throughput_mbps == 10.0


def test_elapsed_accumulates_io_and_comm():
    token = SecureToken()
    f = token.store.create("t")
    f.append_page(b"x" * 2048)
    f.read_page(0)
    token.channel.to_secure(1000)
    assert token.elapsed_s() > 0


def test_reset_costs_preserves_data():
    token = SecureToken()
    f = token.store.create("t")
    f.append_page(b"keep me")
    token.reset_costs()
    assert token.elapsed_s() == 0
    assert f.read_page(0) == b"keep me"
    assert token.channel.stats.bytes_to_secure == 0


def test_label_scoping_nested():
    token = SecureToken()
    f = token.store.create("t")
    with token.label("outer"):
        f.append_page(b"a")
        with token.label("inner"):
            f.append_page(b"b")
    assert token.ledger.label_time_us("outer") > 0
    assert token.ledger.label_time_us("inner") > 0


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

def test_ledger_components_and_counters():
    ledger = CostLedger()
    ledger.charge(READ, 25.0, pages_read=1)
    ledger.charge(WRITE, 200.0, pages_written=1)
    ledger.charge(COMM, 10.0, comm_bytes=10)
    assert ledger.total_time_us() == pytest.approx(235.0)
    assert ledger.total_time_us(READ) == pytest.approx(25.0)
    assert ledger.counters["pages_read"] == 1


def test_ledger_by_label_seconds():
    ledger = CostLedger()
    with ledger.label("Merge"):
        ledger.charge(READ, 1_000_000.0)
    assert ledger.by_label_s() == {"Merge": pytest.approx(1.0)}


def test_snapshot_differencing():
    ledger = CostLedger()
    ledger.charge(READ, 100.0)
    before = ledger.snapshot()
    ledger.charge(READ, 50.0)
    after = ledger.snapshot()
    assert after.total_time_us() - before.total_time_us() == \
        pytest.approx(50.0)
    # snapshots are immutable copies
    ledger.charge(READ, 1000.0)
    assert after.total_time_us() == pytest.approx(150.0)


def test_unlabelled_charges_tracked():
    ledger = CostLedger()
    ledger.charge(READ, 5.0)
    assert ledger.current_label == "(unlabelled)"
    assert ledger.label_time_us("(unlabelled)") == pytest.approx(5.0)


def test_reset_clears_everything():
    ledger = CostLedger()
    with ledger.label("X"):
        ledger.charge(READ, 5.0, pages_read=1)
    ledger.reset()
    assert ledger.total_time_us() == 0
    assert not ledger.counters
