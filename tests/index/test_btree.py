"""Unit and property tests for the flash B+-tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.flash.constants import FlashParams
from repro.flash.ftl import Ftl
from repro.flash.nand import NandFlash
from repro.flash.stats import CostLedger
from repro.flash.store import FlashStore
from repro.hardware.ram import SecureRam
from repro.index.btree import BPlusTree
from repro.index.keys import encode_int

PAGE = 128  # tiny pages force multi-level trees quickly


def make_store(page=PAGE):
    params = FlashParams(page_size=page, n_blocks=1024, pages_per_block=8)
    return FlashStore(Ftl(NandFlash(params), CostLedger(), params))


def build_tree(store, n, payload=lambda i: i * 7):
    entries = [
        (encode_int(i), payload(i).to_bytes(4, "little"))
        for i in range(n)
    ]
    return BPlusTree.bulk_build(store, "t", entries, key_width=8,
                                payload_width=4, page_size=PAGE)


def test_lookup_hits_and_misses():
    store = make_store()
    tree = build_tree(store, 500)
    for i in (0, 1, 250, 499):
        assert int.from_bytes(tree.lookup(encode_int(i)), "little") == i * 7
    assert tree.lookup(encode_int(500)) is None
    assert tree.lookup(encode_int(-1)) is None


def test_tree_is_multilevel():
    store = make_store()
    tree = build_tree(store, 500)
    assert tree.height >= 3
    assert tree.n_leaves > 1


def test_full_scan_in_key_order():
    store = make_store()
    tree = build_tree(store, 300)
    keys = [k for k, _ in tree.range()]
    assert keys == sorted(keys)
    assert len(keys) == 300


def test_range_inclusive_exclusive():
    store = make_store()
    tree = build_tree(store, 100)
    got = [k for k, _ in tree.range(encode_int(10), encode_int(20))]
    assert got == [encode_int(i) for i in range(10, 21)]
    got = [k for k, _ in tree.range(encode_int(10), encode_int(20),
                                    lo_inclusive=False, hi_inclusive=False)]
    assert got == [encode_int(i) for i in range(11, 20)]


def test_open_ranges():
    store = make_store()
    tree = build_tree(store, 50)
    assert len(list(tree.range(lo=encode_int(40)))) == 10
    assert len(list(tree.range(hi=encode_int(9)))) == 10


def test_range_between_keys():
    store = make_store()
    entries = [(encode_int(i * 10), b"\x00" * 4) for i in range(20)]
    tree = BPlusTree.bulk_build(store, "g", entries, 8, 4, PAGE)
    got = [k for k, _ in tree.range(encode_int(15), encode_int(35))]
    assert got == [encode_int(20), encode_int(30)]


def test_empty_tree():
    store = make_store()
    tree = BPlusTree.bulk_build(store, "e", [], 8, 4, PAGE)
    assert tree.lookup(encode_int(0)) is None
    assert list(tree.range()) == []


def test_single_entry_tree():
    store = make_store()
    tree = BPlusTree.bulk_build(
        store, "s", [(encode_int(5), b"abcd")], 8, 4, PAGE
    )
    assert tree.height == 1
    assert tree.lookup(encode_int(5)) == b"abcd"


def test_lookup_many_per_key_descent_cost():
    """Pre-Filter's cost: each lookup pays a full root-to-leaf descent."""
    store = make_store()
    tree = build_tree(store, 500)
    ledger = store.ftl.ledger
    ledger.reset()
    list(tree.lookup_many([encode_int(i) for i in (5, 100, 400)]))
    assert ledger.counters["pages_read"] == 3 * tree.height


def test_traversal_holds_height_buffers():
    store = make_store()
    tree = build_tree(store, 500)
    ram = SecureRam(capacity=tree.height * 2048)
    with ram.query_window() as window:
        assert tree.lookup(encode_int(10), ram=ram) is not None
    assert ram.used == 0
    assert window.peak == tree.height * 2048


def test_width_mismatch_rejected():
    store = make_store()
    with pytest.raises(IndexError_):
        BPlusTree.bulk_build(store, "w", [(b"short", b"\x00" * 4)], 8, 4, PAGE)


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(min_value=-10**9, max_value=10**9),
               min_size=1, max_size=400))
def test_property_every_key_findable(keys):
    store = make_store()
    entries = sorted(
        (encode_int(k), (k & 0xFFFFFFFF).to_bytes(4, "little")) for k in keys
    )
    tree = BPlusTree.bulk_build(store, "p", entries, 8, 4, PAGE)
    for k in keys:
        assert tree.lookup(encode_int(k)) is not None
    assert tree.lookup(encode_int(10**9 + 7)) is None


@settings(max_examples=25, deadline=None)
@given(
    st.sets(st.integers(min_value=0, max_value=10000), min_size=1,
            max_size=300),
    st.integers(min_value=0, max_value=10000),
    st.integers(min_value=0, max_value=10000),
)
def test_property_range_equals_filter(keys, a, b):
    lo, hi = min(a, b), max(a, b)
    store = make_store()
    entries = sorted((encode_int(k), b"\x00" * 4) for k in keys)
    tree = BPlusTree.bulk_build(store, "r", entries, 8, 4, PAGE)
    got = [k for k, _ in tree.range(encode_int(lo), encode_int(hi))]
    expected = [encode_int(k) for k in sorted(keys) if lo <= k <= hi]
    assert got == expected
