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

Two engines share the planning/reduction logic:

* the **batch** engine (default): :meth:`MergeOperator.stream_chunks`
  unions and intersects decoded pages of ids at a time.  Union rounds
  splice the in-RAM page portions below the smallest loaded page tail;
  intersection runs the classic max-based pointer algorithm over the
  union cursors, skipping inside a loaded page with ``bisect``.  Page
  reads, buffer lifetimes and cost-label attribution are exactly the
  scalar engine's -- pages are only ever loaded when the value stream
  crosses them, in the same consumption order.
* the **scalar** reference engine (``REPRO_SCALAR_EXEC=1``):
  ``heapq.merge`` + id-at-a-time intersection, kept verbatim for the
  differential tests.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.execmode import scalar_exec
from repro.errors import PlanError
from repro.flash.store import FlashFile, FlashStore
from repro.hardware.ram import SecureRam
from repro.storage.runs import (IdRun, U32FileBuilder, dedupe_sorted,
                                galloping_search, union_sorted)

MERGE_LABEL = "Merge"

#: output chunk size of the batch pipelines (one flash page of ids)
CHUNK = 512


def _dedupe(it: Iterator[int]) -> Iterator[int]:
    prev = None
    for x in it:
        if x != prev:
            yield x
            prev = x


def intersect_iters(iters: List[Iterator[int]]) -> Iterator[int]:
    """Stream the intersection of sorted, deduplicated iterators."""
    if not iters:
        return
    if len(iters) == 1:
        yield from iters[0]
        return
    try:
        heads = []
        for it in iters:
            heads.append(next(it))
    except StopIteration:
        _close_all(iters)
        return
    try:
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
    finally:
        _close_all(iters)


def _close_all(iters: Iterable[Iterator]) -> None:
    for it in iters:
        close = getattr(it, "close", None)
        if close:
            close()


def _flatten_chunks(chunks: Iterator[List[int]]) -> Iterator[int]:
    """Scalar view of a chunk stream; closing it closes the source."""
    try:
        for chunk in chunks:
            yield from chunk
    finally:
        close = getattr(chunks, "close", None)
        if close:
            close()


# ---------------------------------------------------------------------------
# batch (page-at-a-time) primitives
# ---------------------------------------------------------------------------

class _PageCursor:
    """Consumption-driven cursor over one run's page chunks.

    The next page is loaded only when the current one is fully
    consumed -- the same on-demand pattern as an ``iterate()``
    generator feeding ``heapq.merge``, so the set of pages read (and
    the buffer's alloc/free points) match the scalar engine's.
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
    loaded tail and merges it with one sort -- members are refilled
    only once their loaded page is consumed, exactly when a k-way
    scalar merge would pull their next page.
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
        # straddling a page boundary); the scalar _dedupe drops it
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

    def remaining_chunks(self) -> Iterator[List[int]]:
        """The rest of the stream, chunk-wise (single-group fast path)."""
        if self.pos < len(self.chunk):
            yield self.chunk[self.pos:]
            self.pos = len(self.chunk)
        for chunk in self._chunks:
            yield chunk


def intersect_pages(cursors: List["_UnionCursor"]) -> Iterator[List[int]]:
    """Chunked intersection of union cursors.

    Runs the max-based pointer algorithm of :func:`intersect_iters`
    (same advance order, same early-exit on first exhaustion) but
    emits matches in chunks and skips within loaded pages via bisect.
    """
    if not cursors:
        return
    if len(cursors) == 1:
        yield from cursors[0].remaining_chunks()
        return
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
            if len(out) >= CHUNK:
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
            if scalar_exec():
                for value in _dedupe(heapq.merge(
                        *(v.iterate(self.ram, label="merge reduce")
                          for v in victims))):
                    builder.add(value)
            else:
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
        temps.append(view.file)
        return memory + rest + [IdRun.flash(view)]

    def _fit_to_budget(self, groups: List[List[IdRun]],
                       reserve_buffers: int
                       ) -> Tuple[List[List[IdRun]], List[FlashFile]]:
        """Reduction phase: shrink run counts until buffers suffice.

        Returns the fitted groups plus the reduction temporaries they
        read from; the caller frees those once the merge is consumed.
        """
        groups = [list(g) for g in groups]
        temps: List[FlashFile] = []
        while True:
            needed = sum(r.buffers_needed for g in groups for r in g)
            # the reserve is advisory: never starve Merge below one open
            # run when RAM is physically available for it
            budget = max(
                self.ram.free_buffers - reserve_buffers,
                min(1, self.ram.free_buffers),
            )
            if needed <= budget:
                return groups, temps
            # reduce the group holding the most flash runs
            target = max(
                range(len(groups)),
                key=lambda i: sum(r.buffers_needed for r in groups[i]),
            )
            n_flash = sum(r.buffers_needed for r in groups[target])
            if n_flash < 2:
                raise PlanError(
                    "Merge cannot fit in RAM even after reduction "
                    f"(budget {budget} buffers, reserve {reserve_buffers})"
                )
            # reduction itself needs fold inputs + 1 output buffer, and
            # must stay within the reserve-aware budget: grabbing
            # free_buffers - 1 inputs would transiently occupy buffers
            # promised to downstream SJoin/Store operators.  Like the
            # budget itself, this is advisory at the floor: a reduction
            # pass cannot use fewer than 2 inputs + 1 output, so a
            # budget below 3 buffers is transiently exceeded rather
            # than failing the plan.
            fold = min(n_flash, max(2, budget - 1))
            groups[target] = self._reduce_group(groups[target], fold,
                                                temps)

    # ------------------------------------------------------------------
    def stream_chunks(self, groups: Sequence[Sequence[IdRun]],
                      reserve_buffers: int = 0) -> Iterator[List[int]]:
        """Batch engine: the CNF result as sorted, deduplicated chunks.

        Same contract as :meth:`stream`, page-at-a-time: each yielded
        list holds up to one flash page of ids.  All input-scan I/O is
        charged to the Merge label chunk-wise.
        """
        if not groups:
            return iter(())
        fitted, temps = self._fit_to_budget(list(groups), reserve_buffers)

        def _run() -> Iterator[List[int]]:
            page_iters: List[Iterator[List[int]]] = []
            union_cursors: List[_UnionCursor] = []
            for g in fitted:
                its = [run.iter_pages(self.ram, label="merge input")
                       for run in g]
                page_iters.extend(its)
                union_cursors.append(_UnionCursor(union_pages(its)))
            inner = intersect_pages(union_cursors)
            try:
                while True:
                    # charge input-scan I/O to the Merge label even
                    # when a downstream operator pulls the chunk
                    with self.ledger.label(MERGE_LABEL):
                        chunk = next(inner, None)
                    if chunk is None:
                        break
                    yield chunk
            finally:
                # free the buffers of any page not read to exhaustion,
                # then the reduction runs those pages came from
                _close_all(page_iters)
                for temp in temps:
                    temp.free()

        return _run()

    def stream(self, groups: Sequence[Sequence[IdRun]],
               reserve_buffers: int = 0) -> Iterator[int]:
        """Stream the CNF ``AND over groups ( OR over runs )``.

        ``reserve_buffers`` page buffers are left free for downstream
        pipelined operators (SJoin pages, output builders, Blooms).
        An empty group set is a contradiction-free no-op and yields
        nothing -- callers handle the "no predicates" case themselves.
        """
        if not scalar_exec():
            return _flatten_chunks(self.stream_chunks(groups,
                                                      reserve_buffers))
        if not groups:
            return iter(())
        fitted, temps = self._fit_to_budget(list(groups), reserve_buffers)
        leaf_iters: List[Iterator[int]] = []
        union_iters: List[Iterator[int]] = []
        for g in fitted:
            its = [run.iterate(self.ram, label="merge input") for run in g]
            leaf_iters.extend(its)
            union_iters.append(_dedupe(heapq.merge(*its)))

        def _run() -> Iterator[int]:
            inner = intersect_iters(union_iters)
            try:
                while True:
                    # charge input-scan I/O to the Merge label even when
                    # a downstream operator (SJoin/Store) pulls the item
                    with self.ledger.label(MERGE_LABEL):
                        try:
                            value = next(inner)
                        except StopIteration:
                            break
                    yield value
            finally:
                # free the buffers of any leaf not read to exhaustion,
                # then the reduction runs those leaves came from
                _close_all(leaf_iters)
                for temp in temps:
                    temp.free()

        return _run()
