"""``FlashFile.append_records``: one program per page it fills.

Contract under test: on twin stores, ``f.append_records(records)``
leaves the pages, payloads and fills that appending the records one by
one leaves (the per-record loop is written out below), for any record
width, tail fill and batch size -- empty, within the tail, and across
two pages or more.  It programs the tail page once if any record fits
on it and each further page once, reads the tail once, and a cut back
to the file's earlier length restores it byte for byte.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.constants import FlashParams
from repro.flash.ftl import Ftl
from repro.flash.nand import NandFlash
from repro.flash.stats import CostLedger
from repro.flash.store import FlashStore

PAGE = FlashParams().page_size


def one_by_one(f, records):
    """The reference: each record on the tail page if it fits there,
    else on a fresh page."""
    for record in records:
        fill = f.tail_fill
        if not f.n_pages or fill + len(record) > f.page_size:
            f.append_page(record)
        else:
            last = f.n_pages - 1
            f.write_page(last, f.read_page(last, nbytes=fill) + record)


def store_with(prefix_pages, tail_fill):
    """A store holding file ``t``: ``prefix_pages`` full pages, then a
    tail of ``tail_fill`` bytes (no tail when ``tail_fill`` is None)."""
    params = FlashParams(n_blocks=64)
    ledger = CostLedger()
    store = FlashStore(Ftl(NandFlash(params), ledger, params))
    f = store.create("t")
    for i in range(prefix_pages):
        f.append_page(bytes([200 + i]) * PAGE)
    if tail_fill is not None:
        f.append_page(b"\xee" * tail_fill)
    ledger.reset()
    return f, ledger


def pages(f):
    return [f.read_page(i) for i in range(f.n_pages)]


#: a batch: the width of its records, and how many bytes they add
#: (up to three pages)
batches = st.tuples(st.integers(1, 700), st.integers(0, 3 * PAGE))


@settings(max_examples=200, deadline=None)
@given(batch=batches, prefix=st.integers(0, 2),
       tail=st.one_of(st.none(), st.integers(0, PAGE)))
def test_append_records_equals_the_per_record_loop(batch, prefix, tail):
    width, nbytes = batch
    records = [bytes([i % 251]) * width for i in range(nbytes // width)]
    batched, ledger = store_with(prefix, tail)
    reference, _ = store_with(prefix, tail)
    n0, fill0, before = batched.n_pages, batched.tail_fill, pages(batched)
    ledger.reset()
    batched.append_records(records)
    counters = ledger.counters
    one_by_one(reference, records)

    assert batched.n_pages == reference.n_pages
    assert pages(batched) == pages(reference)
    onto_tail = n0 > 0 and bool(records) and \
        fill0 + len(records[0]) <= PAGE
    assert counters["pages_written"] == onto_tail + batched.n_pages - n0
    assert counters["pages_read"] == onto_tail
    batched.cut(n0, fill0)
    assert pages(batched) == before


def test_a_batch_crossing_pages_programs_each_page_once():
    """1 300 four-byte records on a tail holding 2 000 bytes: the tail
    takes 12, then two full pages and a 1 056-byte one -- four
    programs where the per-record loop makes 1 300."""
    f, ledger = store_with(0, 2000)
    f.append_records([i.to_bytes(4, "little") for i in range(1300)])
    assert ledger.counters["pages_written"] == 4
    assert ledger.counters["pages_read"] == 1
    assert [len(p) for p in pages(f)] == [2048, 2048, 2048, 1056]
