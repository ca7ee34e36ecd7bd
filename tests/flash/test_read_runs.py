"""``FlashFile.read_pages``: the single read, N times, charged once.

Contract under test: on twin stores, ``f.read_pages(idx)`` and
``[f.read_page(i) for i in idx]`` are indistinguishable -- the bytes,
the ledger, the page-cache counters, the sequence of physical reads the
NAND saw, the retries it needed -- for any index list, and they stay
indistinguishable when the run dies part-way: a run that fails at
position *k* has charged exactly the *k* pages before it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BadAddressError, FlashCorruption, StorageError
from repro.faults.flash import FlashFaults
from repro.flash.constants import FlashParams
from repro.flash.ftl import Ftl
from repro.flash.nand import NandFlash
from repro.flash.stats import CostLedger
from repro.flash.store import FlashStore

N_PAGES = 12
CAPACITIES = (1, 8, 512)


class Twin:
    """A store holding one ``N_PAGES``-page file (short last page),
    cold cache, zeroed ledger, every physical read recorded."""

    def __init__(self, capacity, flip_read_every=None, corrupt_index=None):
        params = FlashParams(n_blocks=64)
        self.ledger = CostLedger()
        self.nand = NandFlash(params)
        self.store = FlashStore(Ftl(self.nand, self.ledger, params))
        self.store.page_cache.capacity = capacity
        self.file = self.store.create("t")
        for i in range(N_PAGES - 1):
            self.file.append_page(bytes([i]) * (params.page_size - 8 * i))
        self.file.append_page(b"short last page")
        self.seen = []
        self.faults = None
        # the physical page a persistent fault sits on: it flips a bit
        # on every attempt, so the bounded retry cannot heal it
        self.corrupt_ppn = None
        self.nand.fault_hook = self._hook
        if corrupt_index is not None:
            self.store.page_cache.clear()
            self.file.read_page(corrupt_index)
            self.corrupt_ppn = self.seen[-1][1]
        if flip_read_every:
            # every flip_read_every-th read attempt comes back flipped
            self.faults = FlashFaults(self.nand, flip_reads=range(
                flip_read_every - 1, 10_000, flip_read_every))
        self.store.page_cache.clear()
        self.store.page_cache.hits = self.store.page_cache.misses = 0
        self.ledger.reset()
        del self.seen[:]

    def _hook(self, op, ppn, data):
        self.seen.append((op, ppn))
        if ppn == self.corrupt_ppn:
            return bytes([data[0] ^ 1]) + data[1:]
        return self.faults(op, ppn, data) if self.faults else data

    def one_by_one(self, indices):
        with self.ledger.label("SJoin"):
            return [self.file.read_page(i) for i in indices]

    def as_a_run(self, indices):
        with self.ledger.label("SJoin"):
            return self.file.read_pages(indices)

    def observed(self):
        return (self.ledger.snapshot(), self.store.cache_stats(),
                self.seen, self.nand.read_retries)


def outcome(read, indices):
    try:
        return read(indices)
    except (BadAddressError, FlashCorruption, StorageError) as exc:
        return type(exc)


indices = st.lists(st.integers(0, N_PAGES - 1), max_size=40)


@settings(max_examples=150, deadline=None)
@given(indices, st.sampled_from(CAPACITIES),
       st.sampled_from((None, 2, 3, 7)))
def test_a_run_is_its_single_reads(idx, capacity, flip_read_every):
    single, run = (Twin(capacity, flip_read_every) for _ in range(2))
    assert run.as_a_run(idx) == single.one_by_one(idx)
    assert run.observed() == single.observed()
    # ... and again, now against whatever the first pass left cached
    assert run.as_a_run(idx[::-1]) == single.one_by_one(idx[::-1])
    assert run.observed() == single.observed()
    assert run.ledger.counters["pages_read"] == 2 * len(idx)


def test_a_run_is_one_charge():
    twin = Twin(8)
    size = [len(page) for page in twin.one_by_one(range(N_PAGES))]
    calls = []
    charge = twin.ledger.charge
    twin.ledger.charge = lambda *a: (calls.append(a), charge(*a))
    twin.as_a_run([0, 3, 3, 11])
    assert [(ops, nbytes) for _, _, ops, nbytes in calls] == [
        (4, size[0] + 2 * size[3] + size[11])]
    del calls[:]
    assert twin.as_a_run([]) == [] and calls == []


@settings(max_examples=60, deadline=None)
@given(indices, st.integers(0, N_PAGES - 1), st.sampled_from(CAPACITIES))
def test_a_run_that_meets_a_corrupt_page_charged_the_pages_before_it(
        idx, corrupt, capacity):
    single, run = (Twin(capacity, corrupt_index=corrupt) for _ in range(2))
    got = outcome(run.as_a_run, idx)
    assert got == outcome(single.one_by_one, idx)
    assert run.observed() == single.observed()
    if corrupt in idx:
        assert got is FlashCorruption
        assert run.ledger.counters["pages_read"] == idx.index(corrupt)


@settings(max_examples=60, deadline=None)
@given(indices, st.integers(0, 40), st.sampled_from((-1, N_PAGES, 10**6)),
       st.sampled_from(CAPACITIES))
def test_a_run_that_meets_a_bad_index_charged_the_pages_before_it(
        idx, k, bad, capacity):
    k = min(k, len(idx))
    idx = idx[:k] + [bad] + idx[k:]
    single, run = (Twin(capacity) for _ in range(2))
    assert outcome(run.as_a_run, idx) is BadAddressError
    assert outcome(single.one_by_one, idx) is BadAddressError
    assert run.observed() == single.observed()
    assert run.ledger.counters["pages_read"] == k


@pytest.mark.parametrize("idx", ([], [0], [5, 2, 2]))
def test_a_run_on_a_freed_file_charges_nothing(idx):
    single, run = Twin(8), Twin(8)
    single.file.free()
    run.file.free()
    got = outcome(run.as_a_run, idx)
    assert got == outcome(single.one_by_one, idx)
    assert got == ([] if not idx else StorageError)
    assert run.observed() == single.observed()
    assert not run.ledger.snapshot().cells
