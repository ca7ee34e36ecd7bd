"""Targeted tests for QEPSJ executor internals: Vis caching, pipeline
labelling, and the closed-form page patterns of SJoin, Store and
Post-Select (Merge's is data-dependent: ``test_merge_operator.py``)."""

from contextlib import contextmanager
from math import fsum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators import (ExecContext, PostSelectFilter, op_sjoin,
                                  op_store_columns)
from repro.errors import StorageError
from repro.storage.runs import IDS_PER_PAGE, write_u32s
from repro.workloads.queries import query_q


def test_vis_cache_avoids_duplicate_transfers(db):
    """Cross-Post needs the T1 Vis IDs twice (intersection + Bloom);
    the paper notes the redundant lookup 'can be easily avoided'.
    Verify a single ids-only request per table per query."""
    db.token.channel.stats.outbound_log.clear()
    db.execute(query_q(0.05), vis_strategy="post", cross=True)
    vis_requests = [m for m in db.audit_outbound()
                    if m.kind == "vis_request"]
    t1_requests = [m for m in vis_requests if "T1" in m.description]
    # one selection-phase (ids) + one projection-phase (ids+values)
    assert len(t1_requests) <= 2


def test_decomposition_labels_cover_total(db):
    result = db.execute(query_q(0.05))
    known = {"Vis", "CI", "Merge", "SJoin", "Bloom", "Store", "Project",
             "Plan"}
    assert set(result.stats.by_operator) <= known
    assert fsum(result.stats.by_operator.values()) == result.stats.total_s


def test_pre_plan_spends_on_ci_post_plan_on_sjoin(db):
    pre = db.execute(query_q(0.2), vis_strategy="pre", cross=False).stats
    post = db.execute(query_q(0.2), vis_strategy="post", cross=False).stats
    # Pre pays per-id climbs; Post pays full SKT passes
    assert pre.operator_s("CI") > post.operator_s("CI")
    assert post.operator_s("SJoin") >= pre.operator_s("SJoin") * 0.99


def test_store_appears_only_when_materializing(db):
    # anchor-only projection with pre strategy: anchor id list is the
    # only materialization
    sql = "SELECT T0.id FROM T0 WHERE T0.h3 = 3"
    result = db.execute(sql)
    assert result.stats.operator_s("Store") >= 0
    assert result.stats.operator_s("SJoin") == 0  # no other table needed


def test_comm_bytes_grow_with_projected_visible_width(db):
    narrow = db.execute(
        "SELECT T12.id FROM T12 WHERE T12.h2 = 1"
    ).stats.bytes_to_secure
    wide = db.execute(
        "SELECT T12.id, T12.v1, T12.v2 FROM T12 WHERE T12.h2 = 1"
    ).stats.bytes_to_secure
    assert wide > narrow


def test_hidden_projection_costs_no_communication(db):
    """Hidden values are read from flash, never from the channel."""
    base = db.execute(
        "SELECT T12.id FROM T12 WHERE T12.h2 = 1"
    ).stats.bytes_to_secure
    with_hidden = db.execute(
        "SELECT T12.id, T12.h1 FROM T12 WHERE T12.h2 = 1"
    ).stats.bytes_to_secure
    assert with_hidden == base


def test_empty_hidden_selection_short_circuits(db):
    result = db.execute(query_q(0.1).replace("T12.h2 = 2", "T12.h2 = 777"))
    assert result.rows == []
    assert result.stats.operator_s("SJoin") == pytest.approx(0.0, abs=1e-4)


# ---------------------------------------------------------------------------
# closed-form page patterns: what each operator reads, writes and holds
# ---------------------------------------------------------------------------

@contextmanager
def metered(db):
    """Yields a dict filled on exit with what the block cost: ledger
    ``counters``, the labels charged, and the block's RAM peak."""
    cost = {}
    before = db.token.ledger.snapshot()
    with db.token.ram.query_window() as window:
        yield cost
    spent = db.token.ledger.snapshot() - before
    cost.update(spent.counters, peak=window.peak,
                labels={label for label, s in spent.by_label_s().items()
                        if s})
    db.token.ram.assert_all_freed()


def exec_context(db):
    return ExecContext(db.token, db.catalog, db.vis_server,
                       db.bind(query_q(0.05)))


def in_chunks(values, size):
    return [values[i:i + size] for i in range(0, len(values), size)]


def test_sjoin_reads_exactly_the_distinct_skt_pages_of_its_input(
        db, monkeypatch):
    heap = db.catalog.skt("T0").heap
    n = db.catalog.n_rows("T0")
    assert n % heap.rows_per_page               # the last page is short
    # sparse at first (pages skipped), a dense stretch, the table's tail
    ids = (list(range(0, n // 2, 97)) + list(range(n // 2, n // 2 + 900))
           + list(range(n - 40, n)))
    charges = []
    charge = db.token.ledger.charge
    monkeypatch.setattr(db.token.ledger, "charge",
                        lambda *a: (charges.append(a), charge(*a)))
    for size in (1, 100, IDS_PER_PAGE):      # the chunking is not a cost
        chunks = in_chunks(ids, size)
        del charges[:]
        with metered(db) as cost:
            out = list(op_sjoin(exec_context(db), "T0", iter(chunks),
                                ["T1", "T12"]))
        assert [aid for cols in out for aid in cols[0]] == ids
        pages = [sorted({aid // heap.rows_per_page for aid in chunk})
                 for chunk in chunks]
        assert cost["pages_read"] == len({p for run in pages for p in run})
        assert cost["labels"] == {"SJoin"}
        assert cost["peak"] == db.token.page_size
        # one charge per chunk that reaches a page the previous chunk
        # did not end on -- a run, never a page, is what is charged
        new_runs = sum(run[-1] != held for run, held in
                       zip(pages, [None] + [run[-1] for run in pages]))
        assert len(charges) == new_runs
        assert sum(ops for _, _, ops, _ in charges) == cost["pages_read"]
    assert new_runs < cost["pages_read"] / 4


def oracle_sjoin(ctx, anchor, anchor_chunks, tables):
    """SJoin, one id at a time: the retired kernel -- one charged
    ``read_page`` per SKT page, one ``unpack_from`` per id."""
    skt = ctx.catalog.skt(anchor)
    heap, per_page = skt.heap, skt.heap.rows_per_page
    width = heap.codec.row_width
    positions = skt.column_positions(tables)
    order = sorted(range(len(tables)), key=positions.__getitem__)
    sub = heap.codec.column_struct([positions[i] for i in order])
    buf = ctx.ram.alloc_buffer("sjoin page")
    try:
        cur_page, raw = -1, b""
        for chunk in anchor_chunks:
            cols = [chunk] + [[] for _ in tables]
            for aid in chunk:
                page = aid // per_page
                if page != cur_page:
                    rows_here = min(per_page, heap.n_rows - page * per_page)
                    with ctx.label("SJoin"):
                        raw = heap.file.read_page(page,
                                                  nbytes=rows_here * width)
                    cur_page = page
                row = sub.unpack_from(raw, (aid - page * per_page) * width)
                for rank, i in enumerate(order):
                    cols[1 + i].append(row[rank])
            if chunk:
                yield cols
    finally:
        buf.free()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_property_sjoin_equals_the_id_at_a_time_oracle(db, data):
    skt = db.catalog.skt("T0")
    last = skt.heap.n_rows - 1
    stretches = data.draw(st.lists(st.tuples(st.integers(0, last),
                                             st.integers(1, 400)), max_size=4))
    ids = sorted(data.draw(st.sets(st.integers(0, last), max_size=60)).union(
        *(range(lo, min(lo + length, last + 1)) for lo, length in stretches)))
    size = data.draw(st.sampled_from((1, 7, 100, IDS_PER_PAGE)))
    tables = data.draw(st.permutations(skt.columns).flatmap(
        lambda order: st.integers(1, len(order)).map(
            lambda k: list(order[:k]))))
    observed = []
    for sjoin in (op_sjoin, oracle_sjoin):
        with metered(db) as cost:
            out = list(sjoin(exec_context(db), "T0",
                             iter(in_chunks(ids, size) + [[]]), tables))
        observed.append((out, cost))
    assert observed[0] == observed[1]
    if ids:
        assert observed[0][1]["labels"] == {"SJoin"}
        assert observed[0][1]["bytes_to_ram"] > 0


def test_sjoin_refuses_an_anchor_id_past_the_table(db):
    """One id past the rows of the SKT's last page: a ``StorageError``
    before anything is read or charged (it was a bare ``struct.error``
    from the decode)."""
    n = db.catalog.n_rows("T0")
    before = db.token.ledger.snapshot()
    for chunks in ([[n]], [[0, n - 1, n]], [[n + 10**6]]):
        with pytest.raises(StorageError, match="out of range"):
            list(op_sjoin(exec_context(db), "T0", iter(chunks), ["T1"]))
        db.token.ram.assert_all_freed()
    assert db.token.ledger.snapshot() == before


def test_store_writes_ceil_count_over_ids_per_page_pages_per_column(db):
    tables = ["T0", "T1", "T12"]
    count = 2 * IDS_PER_PAGE + 276
    columns = [list(range(k, k + count)) for k in (0, 7, 11)]
    for size in (1, 100, IDS_PER_PAGE + 1):
        chunks = [list(cols) for cols in zip(*(in_chunks(c, size)
                                               for c in columns))]
        with metered(db) as cost:
            views, stored = op_store_columns(exec_context(db),
                                             iter(chunks), tables)
        assert stored == count
        assert cost["pages_written"] == 3 * len(tables)
        assert "pages_read" not in cost
        assert cost["labels"] == {"Store"}
        assert cost["peak"] == len(tables) * db.token.page_size
        for table, column in zip(tables, columns):
            assert list(views[table].iterate()) == column
            views[table].file.free()


def test_post_select_scans_one_column_per_pass_and_rewrites_them_all(db):
    tables = ["T0", "T1", "T12"]
    count = 2 * IDS_PER_PAGE + 276                      # 3 pages a column
    columns = {t: write_u32s(db.token.store, range(k, k + count))
               for t, k in zip(tables, (0, 7, 11))}
    select = PostSelectFilter(exec_context(db), list(range(7, 7 + count, 2)))
    select.chunk_size = 200
    assert select.n_passes == 4
    with metered(db) as cost:
        views, kept = select.filter_columns(columns, count, "T1")
    assert kept == (count + 1) // 2
    assert cost["pages_read"] == select.n_passes * 3 + len(tables) * 3
    assert cost["pages_written"] == len(tables) * 2     # ceil(kept / 512)
    assert cost["labels"] == {"Project"}
    assert list(views["T0"].iterate()) == list(range(0, count, 2))
    for view in (*columns.values(), *views.values()):
        view.file.free()
