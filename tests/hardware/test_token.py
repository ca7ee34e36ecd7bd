"""Unit tests for the token facade and the cost ledger."""

from repro.flash.constants import FlashParams
from repro.flash.stats import (COMM, ERASE, GC_READ, GC_WRITE, READ, WRITE,
                               CostLedger)
from repro.hardware.token import SecureToken, TokenConfig


def test_default_token_matches_paper():
    token = SecureToken()
    assert token.ram.capacity == 65536
    assert token.page_size == 2048
    assert token.ids_per_page == 512
    assert token.ram.n_buffers == 32


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
    by_label = token.ledger.by_label_s()
    assert by_label["outer"] > 0
    assert by_label["inner"] > 0


# ---------------------------------------------------------------------------
# ledger: integer counts in, derived time and counters out
# ---------------------------------------------------------------------------

#: Table-1 unit prices: (us per page, ns per byte moved)
READ_PRICE = (25.0, 50.0)
WRITE_PRICE = (200.0, 50.0)


def test_ledger_components_and_counters():
    ledger = CostLedger()
    ledger.charge(READ, READ_PRICE, 1, 2048)
    assert ledger.total_time_us() == 25 + 2048 * 0.05    # Table 1
    ledger.reset()
    ledger.charge(READ, READ_PRICE, 2, 3000)
    ledger.charge(WRITE, WRITE_PRICE, 1, 2000)
    ledger.charge(COMM, 2.0, 1, 10)              # 10 bytes at 2 MB/s
    assert ledger.total_time_us(READ) == 200.0
    assert ledger.total_time_us(WRITE) == 300.0
    assert ledger.total_time_us(COMM) == 5.0
    assert ledger.total_time_us() == 505.0
    assert ledger.total_time_s() == 505e-6
    assert ledger.counters == {
        "pages_read": 2, "bytes_to_ram": 3000, "pages_written": 1,
        "bytes_from_ram": 2000, "comm_bytes": 10,
    }
    assert ledger.counters["blocks_erased"] == 0     # a Counter


def test_gc_traffic_is_priced_like_io_and_counted_apart():
    ledger = CostLedger()
    ledger.charge(READ, READ_PRICE, 2, 100)
    ledger.charge(GC_READ, READ_PRICE, 3, 6000)
    ledger.charge(GC_WRITE, WRITE_PRICE, 3, 6000)
    ledger.charge(ERASE, (0.0, 0.0), 1)
    assert ledger.counters == {
        "pages_read": 5, "bytes_to_ram": 100, "gc_pages_read": 3,
        "pages_written": 3, "gc_pages_written": 3, "blocks_erased": 1,
    }
    assert ledger.total_time_us(GC_READ) == 375.0
    assert ledger.total_time_us(GC_WRITE) == 900.0
    assert ledger.total_time_us(ERASE) == 0


def test_time_is_a_function_of_the_counts_not_of_their_order():
    sizes = [7, 2048, 333, 1, 1999, 64] * 50
    one, other = CostLedger(), CostLedger()
    for n in sizes:
        one.charge(READ, READ_PRICE, 1, n)
    for n in reversed(sizes):
        other.charge(READ, READ_PRICE, 1, n)
    assert one.snapshot() == other.snapshot()
    assert one.total_time_us() == other.total_time_us() \
        == len(sizes) * 25.0 + sum(sizes) * 50.0 / 1000.0


def test_ledger_by_label_seconds():
    ledger = CostLedger()
    with ledger.label("Merge"):
        ledger.charge(READ, READ_PRICE, 40_000)
    assert ledger.by_label_s() == {"Merge": 1.0}


def test_snapshot_differencing():
    ledger = CostLedger()
    ledger.charge(READ, READ_PRICE, 4)
    before = ledger.snapshot()
    with ledger.label("Sort"):
        ledger.charge(READ, READ_PRICE, 2, 500)
    ledger.count("sort_spill_runs", 3)
    after = ledger.snapshot()
    spent = after - before
    assert spent.cells == {("Sort", READ, READ_PRICE): (2, 500)}
    assert spent.events == {"sort_spill_runs": 3}
    assert spent.total_time_us() == 75.0
    assert spent.counters == {"pages_read": 2, "bytes_to_ram": 500,
                              "sort_spill_runs": 3}
    # snapshots are immutable copies
    ledger.charge(READ, READ_PRICE, 40)
    assert after.total_time_us() == 175.0


def test_throughput_is_part_of_the_cell_key():
    token = SecureToken()
    token.channel.to_secure(3000)                # default 1.5 MB/s
    token.set_throughput(10.0)
    token.channel.to_secure(3000)
    cells = token.ledger.snapshot().cells
    assert cells == {("(unlabelled)", COMM, 1.5): (1, 3000),
                     ("(unlabelled)", COMM, 10.0): (1, 3000)}
    assert token.ledger.total_time_us() == 2000.0 + 300.0
    assert token.ledger.counters["comm_bytes"] == 6000


def test_unlabelled_charges_tracked():
    ledger = CostLedger()
    ledger.charge(READ, READ_PRICE, 1)
    assert ledger.by_label_s() == {"(unlabelled)": 25e-6}


def test_reset_clears_everything():
    ledger = CostLedger()
    with ledger.label("X"):
        ledger.charge(READ, READ_PRICE, 1)
    ledger.count("compaction_steps")
    ledger.reset()
    assert ledger.total_time_us() == 0
    assert not ledger.counters
    assert ledger.snapshot() == CostLedger().snapshot()
