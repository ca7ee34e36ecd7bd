"""Property tests: the FTL must preserve data under arbitrary churn."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.constants import FlashParams
from repro.flash.ftl import Ftl
from repro.flash.nand import NandFlash
from repro.flash.stats import CostLedger


def make_ftl(n_blocks=16, pages_per_block=4):
    params = FlashParams(n_blocks=n_blocks, pages_per_block=pages_per_block,
                         gc_free_block_threshold=2)
    return Ftl(NandFlash(params), CostLedger(), params)


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=11),   # logical page
              st.integers(min_value=0, max_value=255)),  # payload byte
    max_size=120,
))
def test_property_ftl_is_a_correct_key_value_store(ops):
    """After any sequence of overwrites, reads return the latest write."""
    ftl = make_ftl()
    lpns = ftl.allocate(12)
    shadow = {}
    for slot, value in ops:
        payload = bytes([value]) * 8
        ftl.write(lpns[slot], payload)
        shadow[slot] = payload
    for slot, expected in shadow.items():
        assert ftl.peek(lpns[slot]) == expected


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7),
                min_size=30, max_size=200))
def test_property_gc_never_loses_cold_data(hot_writes):
    """Churn on hot pages must never corrupt cold ones relocated by GC."""
    ftl = make_ftl(n_blocks=10, pages_per_block=4)
    cold = ftl.allocate(8)
    for i, lpn in enumerate(cold):
        ftl.write(lpn, bytes([100 + i]) * 4)
    hot = ftl.allocate(8)
    for slot in hot_writes:
        ftl.write(hot[slot], b"hh")
    for i, lpn in enumerate(cold):
        assert ftl.peek(lpn) == bytes([100 + i]) * 4


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=20, max_value=150))
def test_property_trim_keeps_space_bounded(rounds):
    """Allocate-write-trim cycles never exhaust a small device."""
    ftl = make_ftl(n_blocks=6, pages_per_block=4)
    for round_ in range(rounds):
        lpns = ftl.allocate(3)
        for lpn in lpns:
            ftl.write(lpn, bytes([round_ % 256]) * 4)
        for lpn in lpns:
            ftl.trim(lpn)
    assert ftl.mapped_pages() == 0
