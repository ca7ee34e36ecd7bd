"""The Merge operator: RAM-bounded CNF evaluation over sorted ID runs.

``Merge`` computes ``(L1 ∩ L2 ... ∩ Lk)`` where each ``Li`` is itself a
union of sorted sublists (``Li1 ∪ Li2 ∪ ...``) -- the shape produced by
range predicates and by Vis-ID climbs.  All (sub)lists are sorted on
the same IDs, so the whole expression streams with one RAM buffer per
open sublist plus one output buffer.

When the sublists outnumber the available buffers, a *reduction phase*
(the paper's first alternative in section 3.4) pre-merges the smallest
sublists of a group through flash temporaries until the remainder fits.
Reduction is linear in the merged sublists' sizes, which is why the
smallest ones are the best candidates.

Ids move a decoded page at a time.  Union rounds splice the in-RAM
page portions below the smallest loaded page tail; intersection runs
the classic max-based pointer algorithm over the union cursors,
skipping inside a loaded page by galloping.  The page order is
data-dependent, and it is what the simulated cost is made of, so the
contract is: a run's next page is loaded only when the value stream has
consumed its current one (never ahead), each run holds exactly one page
buffer from its first page until it is exhausted or the stream closes,
the first exhausted group ends the intersection, and every input read
is charged to the ``Merge`` label whichever downstream operator pulled
the chunk.  ``tests/core/test_merge_operator.py`` checks all of it
against an id-at-a-time ``heapq.merge`` oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import PlanError
from repro.flash.store import FlashFile, FlashStore
from repro.hardware.ram import SecureRam
from repro.storage.runs import (IDS_PER_PAGE, IdRun, U32FileBuilder,
                                dedupe_sorted, galloping_search,
                                union_sorted)

MERGE_LABEL = "Merge"


def reduction_step(ram: SecureRam, reserve_buffers: int,
                   n_runs: int) -> Tuple[int, int]:
    """``(budget, fold)`` of a RAM-bounded merge over ``n_runs`` runs.

    ``budget`` runs may be open at once: the free buffers less the
    ``reserve_buffers`` promised downstream -- advisory at the floor, a
    merge is never starved below one open run while RAM is physically
    available.  One reduction pass merges ``fold`` runs: inputs plus
    one output stay within the budget, except that a pass cannot use
    fewer than 2 + 1 buffers, so a budget below 3 is transiently
    exceeded rather than failing the plan.
    """
    free = ram.free_buffers
    budget = max(free - reserve_buffers, min(1, free))
    return budget, min(n_runs, max(2, budget - 1))


class _PageCursor:
    """Consumption-driven cursor over one run's page chunks.

    The next page is loaded only when the current one is fully
    consumed, so which pages are read -- and when the run's buffer is
    allocated and freed -- follows the value stream, never the batch
    size.
    """

    __slots__ = ("_pages", "chunk", "pos")

    def __init__(self, pages: Iterator[List[int]]):
        self._pages = pages
        self.chunk: List[int] = []
        self.pos = 0

    def ensure(self) -> bool:
        """Make the current position valid; False when exhausted."""
        while self.pos >= len(self.chunk):
            nxt = next(self._pages, None)
            if nxt is None:
                return False
            self.chunk = nxt
            self.pos = 0
        return True


def union_pages(page_iters: List[Iterator[List[int]]]
                ) -> Iterator[List[int]]:
    """Chunked, deduplicated union of sorted page-chunk streams.

    Each round takes every member's loaded portion up to the smallest
    loaded tail and merges it with one sort -- a member is refilled
    only once its loaded page is consumed, which is when an
    id-at-a-time k-way merge would pull its next page.
    """
    if len(page_iters) == 1:
        it = page_iters[0]
        last: Optional[int] = None
        for page in it:
            out = dedupe_sorted(page, last)
            if out:
                yield out
                last = out[-1]
        return
    cursors = [_PageCursor(p) for p in page_iters]
    live = [c for c in cursors if c.ensure()]
    last = None
    while live:
        bound = min(c.chunk[-1] for c in live)
        portions: List[List[int]] = []
        for c in live:
            hi = bisect_right(c.chunk, bound, c.pos)
            if hi > c.pos:
                portions.append(c.chunk[c.pos:hi])
                c.pos = hi
        if len(portions) == 1:
            out = dedupe_sorted(portions[0])
        elif len(portions) == 2:
            out = union_sorted(portions[0], portions[1])
        else:
            out = sorted(set().union(*portions))
        # a value equal to the previous round's tail can reappear at
        # the head of a freshly loaded page (duplicates inside one run
        # straddling a page boundary)
        if last is not None and out and out[0] == last:
            del out[0]
        if out:
            yield out
            last = out[-1]
        live = [c for c in live if c.ensure()]


class _UnionCursor:
    """Value cursor over a chunked union stream, with in-page skipping."""

    __slots__ = ("_chunks", "chunk", "pos")

    def __init__(self, chunks: Iterator[List[int]]):
        self._chunks = chunks
        self.chunk: List[int] = []
        self.pos = 0

    def next(self) -> Optional[int]:
        """Consume and return the next value (None when exhausted)."""
        while self.pos >= len(self.chunk):
            nxt = next(self._chunks, None)
            if nxt is None:
                return None
            self.chunk = nxt
            self.pos = 0
        v = self.chunk[self.pos]
        self.pos += 1
        return v

    def advance_to(self, target: int) -> Optional[int]:
        """Consume values below ``target``; return the first >= it.

        Skips within an already-loaded page by galloping from the
        cursor (intersection advances are usually short); pages are
        still loaded one by one, in consumption order.
        """
        while True:
            i = galloping_search(self.chunk, target, self.pos)
            if i < len(self.chunk):
                self.pos = i + 1
                return self.chunk[i]
            nxt = next(self._chunks, None)
            if nxt is None:
                return None
            self.chunk = nxt
            self.pos = 0


def intersect_pages(cursors: List["_UnionCursor"]) -> Iterator[List[int]]:
    """Chunked intersection of two or more union cursors.

    The max-based pointer algorithm: advance every cursor below the
    largest head up to it, in group order; emit when all heads agree,
    then step every cursor; stop at the first exhausted cursor.
    Matches leave in chunks of one page of ids.
    """
    heads: List[int] = []
    for c in cursors:
        v = c.next()
        if v is None:
            return
        heads.append(v)
    out: List[int] = []
    while True:
        top = max(heads)
        matched = True
        for i, c in enumerate(cursors):
            if heads[i] < top:
                v = c.advance_to(top)
                if v is None:
                    if out:
                        yield out
                    return
                heads[i] = v
            if heads[i] > top:
                matched = False
        if matched:
            out.append(top)
            if len(out) >= IDS_PER_PAGE:
                yield out
                out = []
            for i, c in enumerate(cursors):
                v = c.next()
                if v is None:
                    if out:
                        yield out
                    return
                heads[i] = v


class MergeOperator:
    """Executes Merge expressions against one token's RAM and flash."""

    def __init__(self, store: FlashStore, ram: SecureRam):
        self.store = store
        self.ram = ram
        self.ledger = store.ftl.ledger
        self.reductions = 0

    # ------------------------------------------------------------------
    def _reduce_group(self, runs: List[IdRun], fold: int,
                      temps: List[FlashFile]) -> List[IdRun]:
        """Merge the ``fold`` smallest flash runs of a group into one.

        ``temps`` tracks the reduced runs' flash files: an earlier
        reduction this fold consumes is freed here, the new one is
        appended for the stream to free when it closes.
        """
        flash = sorted(
            (r for r in runs if r.buffers_needed > 0), key=lambda r: r.count
        )
        memory = [r for r in runs if r.buffers_needed == 0]
        victims, rest = flash[:fold], flash[fold:]
        with self.ledger.label(MERGE_LABEL):
            builder = U32FileBuilder(self.store, self.ram,
                                     label="merge reduce")
            temps.append(builder.file)
            its = [v.iter_pages(self.ram, label="merge reduce")
                   for v in victims]
            for chunk in union_pages(its):
                builder.append_words(chunk)
            view = builder.finish()
        self.reductions += 1
        for victim in victims:
            if victim.view.file in temps:
                temps.remove(victim.view.file)
                victim.view.file.free()
        return memory + rest + [IdRun.flash(view)]

    def _fit_to_budget(self, groups: Sequence[Sequence[IdRun]],
                       reserve_buffers: int,
                       temps: List[FlashFile]) -> List[List[IdRun]]:
        """Reduction phase: shrink run counts until buffers suffice.

        Returns the fitted groups; the reduction temporaries they read
        from are collected in ``temps`` for the caller to free.
        """
        groups = [list(g) for g in groups]
        while True:
            n_flash = [sum(r.buffers_needed for r in g) for g in groups]
            # a pass reduces the group holding the most flash runs
            target = max(range(len(groups)), key=n_flash.__getitem__)
            budget, fold = reduction_step(self.ram, reserve_buffers,
                                          n_flash[target])
            if sum(n_flash) <= budget:
                return groups
            if n_flash[target] < 2:
                raise PlanError(
                    "Merge cannot fit in RAM even after reduction "
                    f"(budget {budget} buffers, reserve {reserve_buffers})"
                )
            groups[target] = self._reduce_group(groups[target], fold,
                                                temps)

    # ------------------------------------------------------------------
    def stream(self, groups: Sequence[Sequence[IdRun]],
               reserve_buffers: int = 0) -> Iterator[List[int]]:
        """The CNF ``AND over groups ( OR over runs )`` as sorted,
        deduplicated, roughly page-sized chunks of ids.

        ``reserve_buffers`` page buffers are left free for downstream
        pipelined operators (SJoin pages, output builders, Blooms).
        The reduction phase runs here, before anything is consumed;
        closing the returned stream -- at any point, started or not --
        frees every open input buffer and every reduction temporary.
        An empty group set is a contradiction-free no-op and yields
        nothing -- callers handle the "no predicates" case themselves.
        """
        if not groups:
            return iter(())
        stream = self._stream(groups, reserve_buffers)
        next(stream)
        return stream

    def _stream(self, groups: Sequence[Sequence[IdRun]],
                reserve_buffers: int) -> Iterator[List[int]]:
        temps: List[FlashFile] = []
        page_iters: List[Iterator[List[int]]] = []
        try:
            fitted = self._fit_to_budget(groups, reserve_buffers, temps)
            # :meth:`stream` advances to here: the generator is then
            # suspended inside the ``try``, so a close() before the
            # first chunk still runs the ``finally``
            yield []
            unions: List[Iterator[List[int]]] = []
            for g in fitted:
                its = [run.iter_pages(self.ram, label="merge input")
                       for run in g]
                page_iters.extend(its)
                unions.append(union_pages(its))
            # a single group is its union; several are intersected
            inner = unions[0] if len(unions) == 1 else intersect_pages(
                [_UnionCursor(union) for union in unions])
            while True:
                # charge input-scan I/O to the Merge label even when a
                # downstream operator (SJoin/Store) pulls the chunk
                with self.ledger.label(MERGE_LABEL):
                    chunk = next(inner, None)
                if chunk is None:
                    break
                yield chunk
        finally:
            # free the buffers of any page not read to exhaustion,
            # then the reduction runs those pages came from
            for pages in page_iters:
                pages.close()
            for temp in temps:
                temp.free()
