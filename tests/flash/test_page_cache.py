"""The flash page cache: saves host work, never simulated I/O.

Contract under test: every ``FlashFile.read_page`` charges exactly the
Table-1 read cost for the transferred bytes whether the payload came
from NAND or from the cache; hit/miss counters move; writes and frees
invalidate; eviction honours the LRU capacity.
"""

from repro.flash.constants import FlashParams
from repro.flash.ftl import Ftl
from repro.flash.nand import NandFlash
from repro.flash.stats import CostLedger
from repro.flash.store import FlashStore, PageCache


def make_store(capacity=8):
    params = FlashParams(n_blocks=64)
    ledger = CostLedger()
    ftl = Ftl(NandFlash(params), ledger, params)
    store = FlashStore(ftl)
    store.page_cache.capacity = capacity
    return store, ledger, params


def test_cache_hit_charges_exactly_like_a_miss():
    store, ledger, params = make_store()
    f = store.create("t")
    f.append_page(bytes(range(200)))
    ledger.reset()

    first = f.read_page(0, nbytes=64, offset=8)
    cost_first = ledger.total_time_us()
    counters_first = dict(ledger.counters)
    ledger.reset()

    second = f.read_page(0, nbytes=64, offset=8)  # cache hit
    assert second == first
    assert ledger.total_time_us() == cost_first
    assert dict(ledger.counters) == counters_first
    assert ledger.counters["pages_read"] == 1
    assert ledger.counters["bytes_to_ram"] == 64
    assert ledger.total_time_us() == 25 + 64 * 0.05   # Table 1


def test_hit_miss_counters_and_write_through():
    store, _, _ = make_store()
    f = store.create("t")
    f.append_page(b"abc")          # write-through populates the cache
    assert f.read_page(0) == b"abc"
    assert store.page_cache.hits == 1 and store.page_cache.misses == 0
    f.write_page(0, b"xyz")        # rewrite refreshes, not stales
    assert f.read_page(0) == b"xyz"
    assert store.page_cache.hits == 2
    stats = store.cache_stats()
    assert stats["hits"] == 2 and stats["misses"] == 0


def test_free_invalidates_and_reused_pages_stay_fresh():
    store, _, _ = make_store()
    f = store.create("a")
    f.append_page(b"old page")
    f.free()
    # the freed logical page is recycled by the next file
    g = store.create("b")
    g.append_page(b"new page")
    assert g.read_page(0) == b"new page"


def test_lru_eviction_respects_capacity():
    store, _, _ = make_store(capacity=4)
    f = store.create("t")
    for i in range(10):
        f.append_page(bytes([i]) * 10)
    assert len(store.page_cache) == 4
    # oldest pages were evicted; reading one re-fills through the FTL
    misses_before = store.page_cache.misses
    assert f.read_page(0) == bytes([0]) * 10
    assert store.page_cache.misses == misses_before + 1


def test_shadow_swap_recycled_pages_serve_fresh_bytes():
    # the compaction pattern: build a shadow copy, free the old image,
    # keep reading through the shadow.  The freed logical pages get
    # recycled, so a stale cache entry would surface old-image bytes.
    store, _, _ = make_store(capacity=16)
    old = store.create("hidden_T0")
    for i in range(4):
        old.append_page(bytes([0xAA, i]) * 50)
    for i in range(4):
        old.read_page(i)               # warm the cache with old bytes
    shadow = store.create("hidden_T0~c0")
    for i in range(4):
        shadow.append_page(bytes([0xBB, i]) * 50)
    old.free()                         # swap: old image invalidated
    recycled = store.create("hidden_T0")   # name free again after free()
    recycled.append_page(b"fresh")
    assert recycled.read_page(0) == b"fresh"
    for i in range(4):
        assert shadow.read_page(i) == bytes([0xBB, i]) * 50


def test_free_invalidation_is_targeted_not_a_clear():
    store, _, _ = make_store(capacity=16)
    keep = store.create("keep")
    drop = store.create("drop")
    for i in range(3):
        keep.append_page(bytes([1, i]) * 20)
        drop.append_page(bytes([2, i]) * 20)
    for i in range(3):
        keep.read_page(i)
        drop.read_page(i)
    cached_before = len(store.page_cache)
    drop.free()
    # only drop's pages left the cache; keep's entries still hit
    assert len(store.page_cache) == cached_before - 3
    misses_before = store.page_cache.misses
    for i in range(3):
        assert keep.read_page(i) == bytes([1, i]) * 20
    assert store.page_cache.misses == misses_before


def test_page_cache_unit_behavior():
    cache = PageCache()
    cache.capacity = 2
    assert cache.get(1) is None
    cache.put(1, b"one")
    cache.put(2, b"two")
    assert cache.get(1) == b"one"      # refreshes LRU slot of 1
    cache.put(3, b"three")             # evicts 2, the LRU entry
    assert cache.get(2) is None
    assert cache.get(1) == b"one"
    cache.invalidate(1)
    assert cache.get(1) is None
    assert cache.hits == 2 and cache.misses == 3
