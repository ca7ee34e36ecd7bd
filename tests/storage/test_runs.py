"""Unit and property tests for packed u32 files and ID runs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.constants import FlashParams
from repro.flash.ftl import Ftl
from repro.flash.nand import NandFlash
from repro.flash.stats import CostLedger
from repro.flash.store import FlashStore
from repro.hardware.ram import SecureRam
from repro.storage.runs import IdRun, U32FileBuilder, write_u32s

PAGE = 64  # 16 ids per page


def make_store(page=PAGE):
    params = FlashParams(page_size=page, n_blocks=512, pages_per_block=8)
    return FlashStore(Ftl(NandFlash(params), CostLedger(), params))


def test_write_and_iterate_roundtrip():
    store = make_store()
    view = write_u32s(store, range(100))
    assert view.count == 100
    assert list(view.iterate()) == list(range(100))


def test_views_within_shared_file():
    store = make_store()
    b = U32FileBuilder(store)
    m0 = b.mark()
    b.extend([1, 2, 3])
    m1 = b.mark()
    b.extend([10, 20, 30, 40])
    m2 = b.mark()
    b.finish()
    assert list(b.view(m0, m1 - m0).iterate()) == [1, 2, 3]
    assert list(b.view(m1, m2 - m1).iterate()) == [10, 20, 30, 40]


def test_view_crossing_page_boundaries():
    store = make_store()
    view = write_u32s(store, range(1000))
    sub = type(view)(view.file, 13, 40)  # spans several 16-id pages
    assert list(sub.iterate()) == list(range(13, 53))


def test_iterate_holds_one_buffer(pages=4):
    store = make_store()
    ram = SecureRam(capacity=2 * PAGE, page_size=PAGE)
    view = write_u32s(store, range(64), ram=ram)
    assert ram.used == 0  # builder freed its buffer
    it = view.iterate(ram)
    next(it)
    assert ram.used == PAGE
    list(it)  # exhaust
    assert ram.used == 0


def test_iterate_transfers_only_view_bytes():
    store = make_store()
    view = write_u32s(store, range(160))
    ledger = store.ftl.ledger
    ledger.reset()
    sub = type(view)(view.file, 8, 16)  # half of page 0, half of page 1
    list(sub.iterate())
    assert ledger.counters["pages_read"] == 2
    assert ledger.counters["bytes_to_ram"] == 16 * 4


def test_empty_view():
    store = make_store()
    view = write_u32s(store, [])
    assert view.count == 0
    assert list(view.iterate()) == []


def test_memory_run_iteration_costs_nothing():
    run = IdRun.memory([5, 6, 7])
    assert run.count == 3
    assert run.buffers_needed == 0
    assert run.ram_bytes == 12
    assert list(run.iter_pages()) == [[5, 6, 7]]


def test_flash_run_properties():
    store = make_store()
    view = write_u32s(store, [1, 2, 3])
    run = IdRun.flash(view)
    assert run.count == 3
    assert run.buffers_needed == 1
    assert run.ram_bytes == 0
    assert list(run.iter_pages()) == [[1, 2, 3]]


def test_idrun_requires_exactly_one_source():
    with pytest.raises(Exception):
        IdRun(view=None, ids=None)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=300))
def test_property_u32_roundtrip(values):
    store = make_store()
    view = write_u32s(store, values)
    assert list(view.iterate()) == values


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2**32 - 1),
             min_size=1, max_size=200),
    st.data(),
)
def test_property_arbitrary_slices(values, data):
    store = make_store()
    view = write_u32s(store, values)
    start = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    count = data.draw(st.integers(min_value=0,
                                  max_value=len(values) - start))
    sub = type(view)(view.file, start, count)
    assert list(sub.iterate()) == values[start:start + count]
