"""Unit tests for the flash translation layer: out-of-place updates,
garbage collection, wear levelling and I/O cost charging."""

import pytest

from repro.errors import OutOfSpaceError
from repro.flash.constants import FlashParams
from repro.flash.ftl import Ftl
from repro.flash.nand import NandFlash
from repro.flash.stats import CostLedger


def make_ftl(n_blocks=16, pages_per_block=4, threshold=2):
    params = FlashParams(
        n_blocks=n_blocks,
        pages_per_block=pages_per_block,
        gc_free_block_threshold=threshold,
    )
    ledger = CostLedger()
    return Ftl(NandFlash(params), ledger, params), ledger


def test_write_read_roundtrip():
    ftl, _ = make_ftl()
    (lpn,) = ftl.allocate(1)
    ftl.write(lpn, b"payload")
    assert ftl.read(lpn) == b"payload"


def test_rewrite_is_out_of_place_and_visible():
    ftl, _ = make_ftl()
    (lpn,) = ftl.allocate(1)
    ftl.write(lpn, b"v1")
    ftl.write(lpn, b"v2")
    assert ftl.read(lpn) == b"v2"


def test_invalidated_pages_hold_no_payload_before_their_erase():
    """A rewrite or trim leaves the old physical page PROGRAMMED (it
    cannot be reused before an erase) but drops its bytes: the array
    keeps payloads for mapped pages only, however long GC stays away."""
    ftl, _ = make_ftl(n_blocks=64, pages_per_block=4)
    (a, b) = ftl.allocate(2)
    for i in range(20):
        ftl.write(a, bytes([i]) * 64)
    ftl.write(b, b"kept")
    ftl.trim(a)
    assert ftl.gc_runs == 0
    nand = ftl.nand
    assert set(nand._data) == set(ftl._p2l) == {ftl._l2p[b]}
    assert set(nand._spare) == set(nand._data)
    assert sum(nand._state) == 21
    assert ftl.read(b) == b"kept"


def test_partial_read_with_offset():
    ftl, _ = make_ftl()
    (lpn,) = ftl.allocate(1)
    ftl.write(lpn, b"abcdefgh")
    assert ftl.read(lpn, nbytes=3) == b"abc"
    assert ftl.read(lpn, nbytes=3, offset=2) == b"cde"


def test_read_charges_table1_cost():
    ftl, ledger = make_ftl()
    (lpn,) = ftl.allocate(1)
    ftl.write(lpn, b"x" * 2048)
    ledger.reset()
    ftl.read(lpn)  # full page: 25us + 2048*50ns = 127.4us
    assert ledger.total_time_us() == pytest.approx(25 + 2048 * 0.05)
    assert ledger.counters["pages_read"] == 1
    assert ledger.counters["bytes_to_ram"] == 2048


def test_write_charges_table1_cost():
    ftl, ledger = make_ftl()
    (lpn,) = ftl.allocate(1)
    ledger.reset()
    ftl.write(lpn, b"x" * 2048)
    assert ledger.total_time_us() == pytest.approx(200 + 2048 * 0.05)
    assert ledger.counters["pages_written"] == 1


def test_write_read_ratio_in_paper_range():
    """Paper: Flash writes are roughly 3-12x slower than reads."""
    # Table 1: 25 us / 200 us per page read / write, 50 ns per byte
    full_read = 25 + 2048 * 0.05
    word_read = 25 + 4 * 0.05
    write = 200 + 2048 * 0.05
    assert 2.0 < write / full_read < 3.0   # full-page read
    assert 10 < write / word_read < 13     # single-word read


def test_gc_reclaims_space_under_churn():
    ftl, _ = make_ftl(n_blocks=8, pages_per_block=4, threshold=1)
    (lpn,) = ftl.allocate(1)
    # rewrite one logical page many more times than there are physical pages
    for i in range(200):
        ftl.write(lpn, bytes([i % 256]) * 16)
    assert ftl.read(lpn, nbytes=1) == bytes([199 % 256])
    assert ftl.gc_runs > 0


def test_gc_preserves_all_live_data():
    ftl, _ = make_ftl(n_blocks=8, pages_per_block=4, threshold=1)
    lpns = ftl.allocate(6)
    for i, lpn in enumerate(lpns):
        ftl.write(lpn, bytes([i]) * 8)
    # churn on one page forces GC to relocate the others
    (hot,) = ftl.allocate(1)
    for i in range(150):
        ftl.write(hot, b"h" * 8)
    for i, lpn in enumerate(lpns):
        assert ftl.read(lpn, nbytes=1) == bytes([i])


def test_gc_traffic_is_charged():
    ftl, ledger = make_ftl(n_blocks=8, pages_per_block=4, threshold=1)
    *live, hot = ftl.allocate(7)
    for lpn in live:                       # one live page per block ...
        ftl.write(lpn, b"live" * 2)
        for _ in range(3):                 # ... beside three dead ones
            ftl.write(hot, b"z" * 8)
    for _ in range(132):                   # churn makes GC relocate them
        ftl.write(hot, b"z" * 8)
    counters = ledger.counters
    moved = ftl.gc_pages_moved
    assert moved > 0
    assert counters["gc_pages_read"] == counters["gc_pages_written"] == moved
    # relocations count as page I/O and cost time, but move no user bytes
    assert counters["pages_read"] == moved
    assert counters["pages_written"] == 156 + moved
    assert counters["bytes_from_ram"] == 156 * 8
    assert counters["bytes_to_ram"] == 0
    assert counters["blocks_erased"] == ftl.gc_runs
    # Table 1 in whole nanoseconds: the derived time is exact
    assert ledger.total_time_us() == (
        moved * 25_000 + (156 + moved) * 200_000
        + (156 + 2 * moved) * 8 * 50) / 1000


def test_out_of_space_when_all_live():
    ftl, _ = make_ftl(n_blocks=4, pages_per_block=2, threshold=0)
    lpns = ftl.allocate(8)
    with pytest.raises(OutOfSpaceError):
        for lpn in lpns:
            ftl.write(lpn, b"full")
        # every page is live: nothing to collect, next write must fail
        (extra,) = ftl.allocate(1)
        ftl.write(extra, b"boom")


def test_trim_frees_space_for_reuse():
    ftl, _ = make_ftl(n_blocks=4, pages_per_block=2, threshold=1)
    for round_ in range(10):
        lpns = ftl.allocate(3)
        for lpn in lpns:
            ftl.write(lpn, b"r")
        for lpn in lpns:
            ftl.trim(lpn)
    assert ftl.mapped_pages() == 0


def test_wear_levelling_tie_break_prefers_less_worn():
    ftl, _ = make_ftl(n_blocks=6, pages_per_block=2, threshold=1)
    (lpn,) = ftl.allocate(1)
    for i in range(100):
        ftl.write(lpn, b"w")
    counts = ftl.nand.erase_counts
    # churn should spread erases over several blocks, not hammer one
    assert sum(1 for c in counts if c > 0) >= 2
