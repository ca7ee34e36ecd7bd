"""Unit and property tests for the RAM-bounded Merge operator.

Merge is the one QEPSJ operator whose page order is data-dependent, so
its simulated cost cannot be written down in closed form: it is checked
against :class:`OracleMerge`, an id-at-a-time implementation of the
same contract (``heapq.merge`` + dedupe + max-pointer intersection over
``U32View.iterate``).
"""

import heapq
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge import MERGE_LABEL, MergeOperator
from repro.errors import GhostDBError, PlanError
from repro.flash.constants import FlashParams
from repro.flash.ftl import Ftl
from repro.flash.nand import NandFlash
from repro.flash.stats import CostLedger
from repro.flash.store import FlashStore
from repro.hardware.ram import SecureRam
from repro.storage.runs import (IDS_PER_PAGE, IdRun, U32FileBuilder,
                                write_u32s)

PAGE = 64  # 16 ids per page


def make_env(ram_pages=8):
    params = FlashParams(page_size=PAGE, n_blocks=1024, pages_per_block=8)
    store = FlashStore(Ftl(NandFlash(params), CostLedger(), params))
    ram = SecureRam(capacity=ram_pages * PAGE, page_size=PAGE)
    return store, ram


def flash_run(store, ids):
    return IdRun.flash(write_u32s(store, ids))


def flat(chunks):
    return [value for chunk in chunks for value in chunk]


def test_union_of_sorted_runs():
    store, ram = make_env()
    runs = [flash_run(store, [1, 5, 9]), flash_run(store, [2, 5, 7]),
            IdRun.memory([5, 100])]
    assert flat(MergeOperator(store, ram).stream([runs])) == \
        [1, 2, 5, 7, 9, 100]


def test_intersection_semantics():
    store, ram = make_env()
    op = MergeOperator(store, ram)
    g1 = [flash_run(store, [1, 2, 3, 4, 5])]
    g2 = [flash_run(store, [2, 4, 6]), flash_run(store, [5])]
    assert flat(op.stream([g1, g2])) == [2, 4, 5]


def test_empty_group_kills_intersection():
    store, ram = make_env()
    op = MergeOperator(store, ram)
    g1 = [flash_run(store, [1, 2])]
    assert flat(op.stream([g1, []])) == []


def test_no_groups_yields_nothing():
    store, ram = make_env()
    op = MergeOperator(store, ram)
    assert flat(op.stream([])) == []


def test_single_group_dedupes():
    store, ram = make_env()
    op = MergeOperator(store, ram)
    g = [flash_run(store, [1, 3]), flash_run(store, [1, 3, 8])]
    assert flat(op.stream([g])) == [1, 3, 8]


def test_reduction_phase_under_ram_pressure():
    """More sublists than buffers forces the reduction phase."""
    store, ram = make_env(ram_pages=4)
    op = MergeOperator(store, ram)
    group = [flash_run(store, [i, i + 50]) for i in range(10)]
    got = flat(op.stream([group], reserve_buffers=0))
    assert got == sorted({i for i in range(10)} | {i + 50 for i in range(10)})
    assert op.reductions > 0


def test_reduction_writes_are_charged():
    store, ram = make_env(ram_pages=4)
    ledger = store.ftl.ledger
    op = MergeOperator(store, ram)
    group = [flash_run(store, list(range(i, 200 + i, 7))) for i in range(12)]
    ledger.reset()
    flat(op.stream([group]))
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
    got = flat(op.stream([group], reserve_buffers=reserve))
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
        flat(op.stream([group]))


def test_advisory_reserve_does_not_starve_merge():
    """A large reserve degrades to 'at least one open run' rather than
    failing, so tight-RAM plans still execute."""
    store, ram = make_env(ram_pages=3)
    op = MergeOperator(store, ram)
    group = [flash_run(store, [1, 2, 3])]
    assert flat(op.stream([group], reserve_buffers=10)) == [1, 2, 3]


def test_buffers_freed_after_stream():
    store, ram = make_env(ram_pages=8)
    op = MergeOperator(store, ram)
    groups = [[flash_run(store, list(range(40)))],
              [flash_run(store, list(range(0, 40, 2)))]]
    flat(op.stream(groups))
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
    got = flat(op.stream(groups))
    assert got == sorted(expected)
    assert ram.used == 0


def test_union_pages_dedupes_across_page_boundaries():
    """A value repeated inside one run and straddling a page boundary
    (ancestor sublists repeat parent ids) must be emitted once (16
    ids/page at this page size, so 20 repeats straddle)."""
    from repro.core.merge import union_pages

    store, ram = make_env()
    repeats = [5] * 20 + [7]
    runs = [flash_run(store, [1, 2] + repeats), flash_run(store, [3, 9])]
    chunks = list(union_pages([r.iter_pages(ram) for r in runs]))
    assert flat(chunks) == [1, 2, 3, 5, 7, 9]
    ram.assert_all_freed()


def test_union_pages_single_run_dedupes_boundary():
    from repro.core.merge import union_pages

    store, ram = make_env()
    run = flash_run(store, [1] + [4] * 40 + [8])
    chunks = list(union_pages([run.iter_pages(ram)]))
    assert flat(chunks) == [1, 4, 8]
    ram.assert_all_freed()


# ---------------------------------------------------------------------------
# the id-at-a-time oracle
# ---------------------------------------------------------------------------

def _ids(run, ram, label):
    if run.ids is not None:
        return iter(run.ids)
    return run.view.iterate(ram, label)


def _dedupe(it):
    prev = None
    for x in it:
        if x != prev:
            yield x
            prev = x


def _close_all(iters):
    for it in iters:
        close = getattr(it, "close", None)
        if close:
            close()


def intersect_iters(iters):
    """Stream the intersection of sorted, deduplicated iterators."""
    if len(iters) == 1:
        yield from iters[0]
        return
    try:
        heads = [next(it) for it in iters]
        while True:
            top = max(heads)
            matched = True
            for i, it in enumerate(iters):
                while heads[i] < top:
                    heads[i] = next(it)
                if heads[i] > top:
                    matched = False
            if matched:
                yield top
                for i, it in enumerate(iters):
                    heads[i] = next(it)
    except StopIteration:
        return


class OracleMerge(MergeOperator):
    """Merge, one id at a time.  Shares the reduction *policy* with
    the operator (``_fit_to_budget``: budget, fold, which group, and
    the eager start of ``stream``); every id moves through the code
    below.  Yields ints, not chunks."""

    def _reduce_group(self, runs, fold, temps):
        flash = sorted((r for r in runs if r.buffers_needed),
                       key=lambda r: r.count)
        memory = [r for r in runs if not r.buffers_needed]
        victims, rest = flash[:fold], flash[fold:]
        with self.ledger.label(MERGE_LABEL):
            builder = U32FileBuilder(self.store, self.ram,
                                     label="merge reduce")
            temps.append(builder.file)
            for value in _dedupe(heapq.merge(
                    *(_ids(v, self.ram, "merge reduce") for v in victims))):
                builder.append_words([value])
            view = builder.finish()
        self.reductions += 1
        for victim in victims:
            if victim.view.file in temps:
                temps.remove(victim.view.file)
                victim.view.file.free()
        return memory + rest + [IdRun.flash(view)]

    def _stream(self, groups, reserve_buffers):
        temps, leaves = [], []
        try:
            fitted = self._fit_to_budget(groups, reserve_buffers, temps)
            yield None
            unions = []
            for g in fitted:
                its = [_ids(run, self.ram, "merge input") for run in g]
                leaves.extend(its)
                unions.append(_dedupe(heapq.merge(*its)))
            inner = intersect_iters(unions)
            while True:
                with self.ledger.label(MERGE_LABEL):
                    value = next(inner, None)
                if value is None:
                    break
                yield value
        finally:
            _close_all(leaves)
            for temp in temps:
                temp.free()


def _progression(start, step, n, dup):
    return [v for v in range(start, start + step * n, step)
            for _ in range(dup)]


#: a sorted run: irregular values; a short progression whose repeats
#: (up to 20 at 16 ids/page) straddle page boundaries; or a long dense
#: one, so that intersections emit several full chunks
_RUN = st.one_of(
    st.lists(st.integers(0, 300), max_size=60).map(sorted),
    st.builds(_progression, st.integers(0, 40), st.integers(1, 3),
              st.integers(0, 40), st.sampled_from([1, 5, 20])),
    st.builds(_progression, st.integers(0, 40), st.sampled_from([1, 1, 2]),
              st.just(700), st.sampled_from([1, 2])),
)


def _observe(merge_cls, group_lists, ram_pages, reserve, take):
    """Run one merge in a fresh environment and report everything the
    contract covers.  ``take(stream)`` consumes and returns values."""
    store, ram = make_env(ram_pages=ram_pages)
    groups = [[flash_run(store, ids) if i % 3 else IdRun.memory(ids)
               for i, ids in enumerate(group, 1)]
              for group in group_lists]
    before = (store.n_files, store.ftl.mapped_pages())
    ledger = store.ftl.ledger
    ledger.reset()
    ram.reset_peak()
    try:
        stream = merge_cls(store, ram).stream(groups,
                                              reserve_buffers=reserve)
        values = take(stream)
        stream.close()
    except GhostDBError as exc:
        values = type(exc)
    ram.assert_all_freed()
    assert (store.n_files, store.ftl.mapped_pages()) == before
    return (values, dict(ledger.counters), ledger.total_time_us(),
            ram.peak_used)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(_RUN, min_size=1, max_size=8),
             min_size=1, max_size=3),
    st.integers(min_value=4, max_value=12),
    st.integers(min_value=0, max_value=5),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
def test_property_merge_equals_the_id_at_a_time_oracle(
        group_lists, ram_pages, reserve, stop_after):
    """Random CNFs x RAM sizes x reserves, consumed whole or abandoned
    after ``stop_after`` chunks (0 = closed before the first ``next``):
    the operator and the oracle agree on the values, on every ledger
    counter, on the exact simulated time and on the RAM peak, and both
    leave RAM, files and mapped pages where they found them."""
    taken = []

    def take_chunks(stream):
        chunks = list(islice(stream, stop_after))
        # the stream ran dry when it had fewer chunks than asked for;
        # an intersection's short chunk is its last one, emitted after
        # an input ran dry -- nothing is left to abandon then
        ran_dry = stop_after is None or len(chunks) < stop_after or (
            len(group_lists) > 1 and chunks
            and len(chunks[-1]) < IDS_PER_PAGE)
        taken.append(None if ran_dry else sum(map(len, chunks)))
        return flat(chunks + list(stream) if ran_dry else chunks)

    got = _observe(MergeOperator, group_lists, ram_pages, reserve,
                   take_chunks)
    n_ids = taken[0] if taken else None         # raised: nothing taken
    want = _observe(OracleMerge, group_lists, ram_pages, reserve,
                    lambda stream: list(islice(stream, n_ids)))
    assert got == want


# ---------------------------------------------------------------------------
# reduction temporaries are freed (regression: one leaked file per merge)
# ---------------------------------------------------------------------------

def test_reduction_runs_are_freed_when_the_merge_closes():
    """Several folds in a row: a fold that consumes an earlier reduced
    run frees it, the stream's close frees the survivors -- also when
    the consumer stops early, or closes (or drops) the stream before
    its first ``next``."""
    store, ram = make_env(ram_pages=4)
    op = MergeOperator(store, ram)
    group = [flash_run(store, list(range(i, 200 + i, 7))) for i in range(12)]
    expected = sorted({v for i in range(12) for v in range(i, 200 + i, 7)})
    before = (store.n_files, store.ftl.mapped_pages())

    assert flat(op.stream([group])) == expected
    assert op.reductions > 1          # later folds consumed earlier ones
    assert (store.n_files, store.ftl.mapped_pages()) == before

    partial = op.stream([group])
    assert next(partial)[0] == expected[0]
    partial.close()
    assert (store.n_files, store.ftl.mapped_pages()) == before

    unstarted = op.stream([group])    # the reduction has already run
    assert store.n_files > before[0]
    unstarted.close()
    assert (store.n_files, store.ftl.mapped_pages()) == before

    op.stream([group])                # dropped, never closed
    assert (store.n_files, store.ftl.mapped_pages()) == before
    ram.assert_all_freed()


def test_a_reduction_that_cannot_fit_frees_its_earlier_folds():
    """``_fit_to_budget`` raising after some folds strands none."""
    store, ram = make_env(ram_pages=4)
    op = MergeOperator(store, ram)
    wide = [flash_run(store, list(range(i, 200 + i, 7))) for i in range(12)]
    singles = [[flash_run(store, [1, 2, 3])] for _ in range(4)]
    before = (store.n_files, store.ftl.mapped_pages())
    with pytest.raises(PlanError):
        op.stream([wide] + singles)
    assert op.reductions > 0
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
