"""Unit tests for the secure RAM budget."""

import pytest

from repro.errors import RamExhausted
from repro.hardware.ram import SecureRam


def test_defaults_match_paper():
    ram = SecureRam()
    assert ram.capacity == 65536
    assert ram.n_buffers == 32


def test_alloc_and_free():
    ram = SecureRam(capacity=4096, page_size=2048)
    a = ram.alloc(1000, "x")
    assert ram.used == 1000
    a.free()
    assert ram.used == 0


def test_over_budget_raises():
    ram = SecureRam(capacity=4096)
    ram.alloc(4000)
    with pytest.raises(RamExhausted):
        ram.alloc(97)


def test_exact_fit_allowed():
    ram = SecureRam(capacity=4096)
    ram.alloc(4096)
    assert ram.free_bytes == 0


def test_window_peak_is_a_high_water_mark():
    ram = SecureRam(capacity=8192)
    with ram.query_window() as window:
        a = ram.alloc(5000)
        a.free()
        ram.alloc(100)
    assert window.peak == 5000


def test_window_peak_counts_only_its_own_allocations():
    ram = SecureRam(capacity=8192)
    held = ram.alloc(3000)
    with ram.query_window() as window:
        # what was held before the window opened is not its peak
        assert window.peak == 0
        b = ram.alloc(1200)
        b.free()
    assert window.peak == 1200
    held.free()


def test_window_unaffected_by_freeing_an_older_allocation():
    ram = SecureRam(capacity=8192)
    held = ram.alloc(3000)
    with ram.query_window() as window:
        held.free()                     # made before the window opened
        assert window.held == 0
        b = ram.alloc(1000)
        assert (window.held, window.peak) == (1000, 1000)
        b.free()
    assert ram.used == 0


def test_refused_alloc_charges_nothing():
    ram = SecureRam(capacity=4096)
    with ram.query_window() as window:
        a = ram.alloc(4000)
        with pytest.raises(RamExhausted):
            ram.alloc(97)
        assert ram.used == 4000
        assert (window.held, window.peak) == (4000, 4000)
        assert window.allocations == [a]
        a.free()


def test_window_free_all_and_power_cycle_reclaim_stranded_buffers():
    ram = SecureRam(capacity=8192)
    outside = ram.alloc(1000)
    with ram.query_window() as window:
        ram.alloc(2000)
        ram.alloc(3000).free()
    window.free_all()                   # only what the window made
    assert ram.used == 1000 and not outside.freed
    assert ram.power_cycle() == 1000
    assert outside.freed
    ram.assert_all_freed()


def test_buffer_allocation():
    ram = SecureRam(capacity=65536, page_size=2048)
    bufs = [ram.alloc_buffer() for _ in range(32)]
    assert ram.free_buffers == 0
    with pytest.raises(RamExhausted):
        ram.alloc_buffer()
    for b in bufs:
        b.free()
    assert ram.free_buffers == 32


def test_double_free_is_idempotent():
    ram = SecureRam(capacity=4096)
    a = ram.alloc(1024)
    a.free()
    a.free()
    assert ram.used == 0


def test_reserve_context_manager():
    ram = SecureRam(capacity=4096)
    with ram.reserve(3000):
        assert ram.used == 3000
    assert ram.used == 0


def test_reserve_frees_on_exception():
    ram = SecureRam(capacity=4096)
    with pytest.raises(ValueError):
        with ram.reserve(3000):
            raise ValueError("boom")
    assert ram.used == 0


def test_assert_all_freed():
    ram = SecureRam(capacity=4096)
    a = ram.alloc(8)
    with pytest.raises(RamExhausted):
        ram.assert_all_freed()
    a.free()
    ram.assert_all_freed()


def test_negative_alloc_rejected():
    ram = SecureRam(capacity=4096)
    with pytest.raises(ValueError):
        ram.alloc(-1)


def test_windows_nest():
    ram = SecureRam(capacity=32 * 2048, page_size=2048)
    with ram.query_window() as outer:
        with ram.reserve(2048):
            with ram.query_window() as inner:
                with ram.reserve(2 * 2048):
                    pass
    assert inner.peak == 2 * 2048         # only its own statement
    assert outer.peak == 3 * 2048         # everything below it


def test_closed_window_stops_charging():
    ram = SecureRam(capacity=32 * 2048, page_size=2048)
    with ram.query_window() as window:
        pass
    with ram.reserve(2048):
        pass
    assert window.peak == 0


def test_windows_belong_to_their_ram():
    """An allocation on one token's RAM charges that RAM's windows
    only, so one shard's statement never reports another's peak."""
    a, b = SecureRam(capacity=8192), SecureRam(capacity=8192)
    with a.query_window() as window_a:
        with b.query_window() as window_b:
            with b.reserve(4096):
                pass
        with a.reserve(1024):
            pass
    assert window_a.peak == 1024
    assert window_b.peak == 4096
