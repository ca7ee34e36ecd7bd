"""Unit and property tests for the RAM-bounded Merge operator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge import MergeOperator, intersect_iters
from repro.errors import PlanError
from repro.flash.constants import FlashParams
from repro.flash.ftl import Ftl
from repro.flash.nand import NandFlash
from repro.flash.stats import CostLedger
from repro.flash.store import FlashStore
from repro.hardware.ram import SecureRam
from repro.storage.runs import IdRun, write_u32s

PAGE = 64  # 16 ids per page


def make_env(ram_pages=8):
    params = FlashParams(page_size=PAGE, n_blocks=1024, pages_per_block=8)
    store = FlashStore(Ftl(NandFlash(params), CostLedger(), params))
    ram = SecureRam(capacity=ram_pages * PAGE, page_size=PAGE)
    return store, ram


def flash_run(store, ids):
    return IdRun.flash(write_u32s(store, ids))


def test_union_of_sorted_runs():
    store, ram = make_env()
    runs = [flash_run(store, [1, 5, 9]), flash_run(store, [2, 5, 7]),
            IdRun.memory([5, 100])]
    assert list(MergeOperator(store, ram).stream([runs])) == \
        [1, 2, 5, 7, 9, 100]


def test_intersection_semantics():
    store, ram = make_env()
    op = MergeOperator(store, ram)
    g1 = [flash_run(store, [1, 2, 3, 4, 5])]
    g2 = [flash_run(store, [2, 4, 6]), flash_run(store, [5])]
    assert list(op.stream([g1, g2])) == [2, 4, 5]


def test_empty_group_kills_intersection():
    store, ram = make_env()
    op = MergeOperator(store, ram)
    g1 = [flash_run(store, [1, 2])]
    assert list(op.stream([g1, []])) == []


def test_no_groups_yields_nothing():
    store, ram = make_env()
    op = MergeOperator(store, ram)
    assert list(op.stream([])) == []


def test_single_group_dedupes():
    store, ram = make_env()
    op = MergeOperator(store, ram)
    g = [flash_run(store, [1, 3]), flash_run(store, [1, 3, 8])]
    assert list(op.stream([g])) == [1, 3, 8]


def test_reduction_phase_under_ram_pressure():
    """More sublists than buffers forces the reduction phase."""
    store, ram = make_env(ram_pages=4)
    op = MergeOperator(store, ram)
    group = [flash_run(store, [i, i + 50]) for i in range(10)]
    got = list(op.stream([group], reserve_buffers=0))
    assert got == sorted({i for i in range(10)} | {i + 50 for i in range(10)})
    assert op.reductions > 0


def test_reduction_writes_are_charged():
    store, ram = make_env(ram_pages=4)
    ledger = store.ftl.ledger
    op = MergeOperator(store, ram)
    group = [flash_run(store, list(range(i, 200 + i, 7))) for i in range(12)]
    ledger.reset()
    list(op.stream([group]))
    assert ledger.counters["pages_written"] > 0  # reduction temps
    assert ledger.by_label_s()["Merge"] > 0


def test_reduction_respects_reserved_buffers():
    """The reduction fold must stay within the reserve-aware budget:
    folding ``free_buffers - 1`` inputs would transiently occupy the
    buffers promised to downstream SJoin/Store operators."""
    store, ram = make_env(ram_pages=8)
    op = MergeOperator(store, ram)
    group = [flash_run(store, [i, i + 10, i + 20, i + 30, i + 40,
                               i + 50, i + 60, i + 70])
             for i in range(6)]
    reserve = 5
    budget_pages = ram.free_buffers - reserve  # 3 buffers for Merge
    ram.reset_peak()
    got = list(op.stream([group], reserve_buffers=reserve))
    assert got == sorted({i + 10 * k for i in range(6) for k in range(8)})
    assert op.reductions > 0
    assert ram.peak_used <= budget_pages * PAGE


def test_impossible_budget_raises():
    """With literally no free buffer, Merge cannot run at all."""
    store, ram = make_env(ram_pages=2)
    ram.alloc(2 * PAGE, "hog")
    op = MergeOperator(store, ram)
    group = [flash_run(store, [1])]
    with pytest.raises(PlanError):
        list(op.stream([group]))


def test_advisory_reserve_does_not_starve_merge():
    """A large reserve degrades to 'at least one open run' rather than
    failing, so tight-RAM plans still execute."""
    store, ram = make_env(ram_pages=3)
    op = MergeOperator(store, ram)
    group = [flash_run(store, [1, 2, 3])]
    assert list(op.stream([group], reserve_buffers=10)) == [1, 2, 3]


def test_buffers_freed_after_stream():
    store, ram = make_env(ram_pages=8)
    op = MergeOperator(store, ram)
    groups = [[flash_run(store, list(range(40)))],
              [flash_run(store, list(range(0, 40, 2)))]]
    list(op.stream(groups))
    assert ram.used == 0


def test_buffers_freed_on_early_abandonment():
    store, ram = make_env(ram_pages=8)
    op = MergeOperator(store, ram)
    groups = [[flash_run(store, list(range(100)))],
              [flash_run(store, list(range(100)))]]
    stream = op.stream(groups)
    next(stream)
    stream.close()
    assert ram.used == 0


def test_intersect_iters_plain():
    got = list(intersect_iters([iter([1, 2, 3, 7]), iter([2, 7, 9])]))
    assert got == [2, 7]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(  # groups
            st.sets(st.integers(0, 300), max_size=60),  # runs as sets
            min_size=1, max_size=4,
        ),
        min_size=1, max_size=4,
    ),
    st.integers(min_value=6, max_value=12),
)
def test_property_merge_equals_set_algebra(groups_sets, ram_pages):
    store, ram = make_env(ram_pages=ram_pages)
    op = MergeOperator(store, ram)
    groups = [
        [flash_run(store, sorted(s)) for s in group]
        for group in groups_sets
    ]
    expected = None
    for group in groups_sets:
        union = set().union(*group) if group else set()
        expected = union if expected is None else expected & union
    got = list(op.stream(groups))
    assert got == sorted(expected)
    assert ram.used == 0


def test_union_pages_dedupes_across_page_boundaries():
    """A value repeated inside one run and straddling a page boundary
    (ancestor sublists repeat parent ids) must be emitted once -- the
    batch union's parity with the scalar ``_dedupe`` (16 ids/page at
    this page size, so 20 repeats straddle)."""
    from repro.core.merge import union_pages

    store, ram = make_env()
    repeats = [5] * 20 + [7]
    runs = [flash_run(store, [1, 2] + repeats), flash_run(store, [3, 9])]
    chunks = list(union_pages([r.iter_pages(ram) for r in runs]))
    flat = [v for chunk in chunks for v in chunk]
    assert flat == [1, 2, 3, 5, 7, 9]
    ram.assert_all_freed()


def test_union_pages_single_run_dedupes_boundary():
    from repro.core.merge import union_pages

    store, ram = make_env()
    run = flash_run(store, [1] + [4] * 40 + [8])
    chunks = list(union_pages([run.iter_pages(ram)]))
    assert [v for chunk in chunks for v in chunk] == [1, 4, 8]
    ram.assert_all_freed()


def test_batch_and_scalar_streams_agree_on_duplicated_runs(monkeypatch):
    """End-to-end: MergeOperator.stream over duplicate-bearing runs is
    identical in both engines (same values, same simulated charges)."""
    results = {}
    for mode in ("batch", "scalar"):
        if mode == "scalar":
            monkeypatch.setenv("REPRO_SCALAR_EXEC", "1")
        else:
            monkeypatch.delenv("REPRO_SCALAR_EXEC", raising=False)
        store, ram = make_env()
        op = MergeOperator(store, ram)
        g1 = [flash_run(store, [2] * 30 + [4, 6]),
              flash_run(store, [3, 4])]
        g2 = [flash_run(store, list(range(0, 50, 2)))]
        values = list(op.stream([g1, g2]))
        results[mode] = (values, store.ftl.ledger.total_time_us(),
                         dict(store.ftl.ledger.counters))
        ram.assert_all_freed()
    monkeypatch.delenv("REPRO_SCALAR_EXEC", raising=False)
    assert results["batch"] == results["scalar"]
    assert results["batch"][0] == [2, 4, 6]


# ---------------------------------------------------------------------------
# reduction temporaries are freed (regression: one leaked file per merge)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["batch", "scalar"])
def test_reduction_runs_are_freed_when_the_merge_closes(monkeypatch, mode):
    """Several folds in a row: a fold that consumes an earlier reduced
    run frees it, the stream's close frees the survivors -- also when
    the consumer stops early."""
    if mode == "scalar":
        monkeypatch.setenv("REPRO_SCALAR_EXEC", "1")
    else:
        monkeypatch.delenv("REPRO_SCALAR_EXEC", raising=False)
    store, ram = make_env(ram_pages=4)
    op = MergeOperator(store, ram)
    group = [flash_run(store, list(range(i, 200 + i, 7))) for i in range(12)]
    expected = sorted({v for i in range(12) for v in range(i, 200 + i, 7)})
    before = (store.n_files, store.ftl.mapped_pages())

    assert list(op.stream([group])) == expected
    assert op.reductions > 1          # later folds consumed earlier ones
    assert (store.n_files, store.ftl.mapped_pages()) == before

    partial = op.stream([group])
    assert next(partial) == expected[0]
    partial.close()
    assert (store.n_files, store.ftl.mapped_pages()) == before
    ram.assert_all_freed()


def test_repeated_prepared_query_q_does_not_grow_flash(db):
    """The leak as a workload saw it: Query Q at T1.v1 < 200 reduces
    its Merge inputs, and each execution used to strand one temp file."""
    stmt = db.prepare(
        "SELECT T0.id, T1.id, T12.id, T1.v1 FROM T0, T1, T12 "
        "WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id "
        "AND T1.v1 < ? AND T12.h2 = 2")
    store, ftl = db.token.store, db.token.ftl
    spilled = 0
    for _ in range(3):
        for params in ((50,), (200,)):
            before = (store.n_files, ftl.mapped_pages())
            result = stmt.execute(params)
            spilled += result.stats.counters.get("pages_written", 0)
            assert (store.n_files, ftl.mapped_pages()) == before
    assert spilled > 0                # the statements did write temps
