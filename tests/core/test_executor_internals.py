"""Targeted tests for QEPSJ executor internals: Vis caching, pipeline
labelling, and the closed-form page patterns of SJoin, Store and
Post-Select (Merge's is data-dependent: ``test_merge_operator.py``)."""

from contextlib import contextmanager
from math import fsum

import pytest

from repro.core.operators import (ExecContext, PostSelectFilter, op_sjoin,
                                  op_store_columns)
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
    return ExecContext(db.token, db.catalog, db._vis_server,
                       db._bind(query_q(0.05)))


def in_chunks(values, size):
    return [values[i:i + size] for i in range(0, len(values), size)]


def test_sjoin_reads_exactly_the_distinct_skt_pages_of_its_input(db):
    heap = db.catalog.skt("T0").heap
    n = db.catalog.n_rows("T0")
    # sparse at first (pages skipped), then a dense stretch
    ids = list(range(0, n // 2, 97)) + list(range(n // 2, n // 2 + 900))
    for size in (1, 100, IDS_PER_PAGE):      # the chunking is not a cost
        with metered(db) as cost:
            out = list(op_sjoin(exec_context(db), "T0",
                                iter(in_chunks(ids, size)), ["T1", "T12"]))
        assert [aid for cols in out for aid in cols[0]] == ids
        assert cost["pages_read"] == len({aid // heap.rows_per_page
                                          for aid in ids})
        assert cost["labels"] == {"SJoin"}
        assert cost["peak"] == db.token.page_size


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
