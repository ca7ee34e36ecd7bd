"""Unit and property tests for climbing indexes and SKTs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.flash.constants import FlashParams
from repro.flash.ftl import Ftl
from repro.flash.nand import NandFlash
from repro.flash.stats import CostLedger
from repro.flash.store import FlashStore
from repro.index.climbing import ClimbingIndex
from repro.index.skt import SubtreeKeyTable
from repro.predicate import Predicate
from repro.storage.codec import IntType

PAGE = 256


def make_store():
    params = FlashParams(page_size=PAGE, n_blocks=2048, pages_per_block=8)
    return FlashStore(Ftl(NandFlash(params), CostLedger(), params))


def small_schema():
    """T0 (12 rows) -> T1 (4 rows): T0.fk1 = i % 4.

    T1 attribute h = id % 2, so h=0 selects T1 ids {0, 2}.
    """
    t1_items = [(i % 2, i) for i in range(4)]           # (value, idT1)
    t0_of_t1 = {i: sorted(j for j in range(12) if j % 4 == i)
                for i in range(4)}
    return t1_items, {"T0": t0_of_t1}


def build_index(store, items, ancestors, levels=("T1", "T0")):
    return ClimbingIndex.build(
        store, "t1_h", IntType(4), levels, items, ancestors, PAGE
    )


def test_equality_lookup_self_level():
    store = make_store()
    items, anc = small_schema()
    ci = build_index(store, items, anc)
    views = ci.lookup(Predicate("=", 0), "T1")
    assert len(views) == 1
    assert list(views[0].iterate()) == [0, 2]


def test_equality_lookup_climbs_to_root():
    store = make_store()
    items, anc = small_schema()
    ci = build_index(store, items, anc)
    views = ci.lookup(Predicate("=", 0), "T0")
    (view,) = views
    got = list(view.iterate())
    # T1 ids 0 and 2 are referenced by T0 ids {0,4,8} and {2,6,10}
    assert got == sorted([0, 4, 8, 2, 6, 10])


def test_sublists_are_sorted():
    store = make_store()
    items, anc = small_schema()
    ci = build_index(store, items, anc)
    for value in (0, 1):
        for level in ("T1", "T0"):
            (view,) = ci.lookup(Predicate("=", value), level)
            ids = list(view.iterate())
            assert ids == sorted(ids)


def test_range_yields_one_sublist_per_entry():
    store = make_store()
    items = [(v, v * 10 + d) for v in range(10) for d in range(3)]
    anc = {"T0": {i: [i] for i in range(100)}}
    ci = build_index(store, items, anc)
    views = ci.lookup(Predicate("between", 2, 5), "T1")
    assert len(views) == 4  # values 2,3,4,5
    all_ids = [i for v in views for i in v.iterate()]
    assert sorted(all_ids) == sorted(
        i for val, i in items if 2 <= val <= 5
    )


def test_open_range_operators():
    store = make_store()
    items = [(v, v) for v in range(10)]
    anc = {"T0": {i: [i] for i in range(10)}}
    ci = build_index(store, items, anc)
    assert len(ci.lookup(Predicate("<", 3), "T1")) == 3
    assert len(ci.lookup(Predicate("<=", 3), "T1")) == 4
    assert len(ci.lookup(Predicate(">", 6), "T1")) == 3
    assert len(ci.lookup(Predicate(">=", 6), "T1")) == 4


def test_in_lookup():
    store = make_store()
    items = [(v, v) for v in range(20)]
    anc = {"T0": {i: [100 + i] for i in range(20)}}
    ci = build_index(store, items, anc)
    views = ci.lookup(Predicate("in", values=[3, 7, 99]), "T0")
    assert len(views) == 2  # 99 not present
    assert sorted(i for v in views for i in v.iterate()) == [103, 107]


def test_missing_value_returns_empty():
    store = make_store()
    items, anc = small_schema()
    ci = build_index(store, items, anc)
    assert ci.lookup(Predicate("=", 42), "T1") == []


def test_unknown_level_rejected():
    store = make_store()
    items, anc = small_schema()
    ci = build_index(store, items, anc)
    with pytest.raises(IndexError_):
        ci.lookup(Predicate("=", 0), "T99")


def test_bad_operator_rejected():
    with pytest.raises(IndexError_):
        Predicate("!=", 1)


def test_missing_ancestor_map_rejected():
    store = make_store()
    with pytest.raises(IndexError_):
        ClimbingIndex.build(store, "x", IntType(4), ["T1", "T0"],
                            [(1, 1)], {}, PAGE)


def test_root_index_single_level():
    """Root-table index = plain B+-tree (no climbing levels)."""
    store = make_store()
    items = [(v % 5, v) for v in range(50)]
    ci = ClimbingIndex.build(store, "t0_h", IntType(4), ["T0"], items, {},
                             PAGE)
    (view,) = ci.lookup(Predicate("=", 2), "T0")
    assert list(view.iterate()) == [v for v in range(50) if v % 5 == 2]


def test_storage_bytes_positive():
    store = make_store()
    items, anc = small_schema()
    ci = build_index(store, items, anc)
    assert ci.storage_bytes() > 0
    before = store.pages_used()
    ci.free()
    assert store.pages_used() < before


# ---------------------------------------------------------------------------
# SKT
# ---------------------------------------------------------------------------

def test_skt_build_and_get():
    store = make_store()
    rows = [(i % 4, i % 7, (i * 3) % 5) for i in range(30)]
    skt = SubtreeKeyTable.build(store, "T0", ["T1", "T11", "T12"], rows, PAGE)
    assert skt.heap.n_rows == 30
    assert skt.get(10) == rows[10]


def test_skt_column_positions():
    store = make_store()
    skt = SubtreeKeyTable.build(store, "T0", ["T1", "T2"], [], PAGE)
    assert skt.column_positions(["T2"]) == [1]
    assert skt.column_positions(["T2", "T1"]) == [1, 0]
    with pytest.raises(IndexError_):
        skt.column_positions(["T9"])


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 10**6)),
                min_size=1, max_size=120, unique_by=lambda t: t[1]))
def test_property_climbing_equals_naive(items):
    """Index lookups must equal a naive scan, at every level."""
    store = make_store()
    anc_map = {i: sorted({(i * 17 + k) % 1000 for k in range(3)})
               for _, i in items}
    ci = ClimbingIndex.build(store, "p", IntType(4), ["T1", "T0"],
                             items, {"T0": anc_map}, PAGE)
    values = {v for v, _ in items}
    for value in values:
        (v_self,) = ci.lookup(Predicate("=", value), "T1")
        expect_self = sorted(i for v, i in items if v == value)
        assert list(v_self.iterate()) == expect_self
        (v_root,) = ci.lookup(Predicate("=", value), "T0")
        expect_root = sorted(
            x for v, i in items if v == value for x in anc_map[i]
        )
        assert list(v_root.iterate()) == expect_root
