"""Incremental per-table compaction: bounded steps, no stop-the-world.

Every mutation is append-only: deletes tombstone, inserts tail-append,
climbing indexes grow flash delta logs, and fk deltas let lookups
climb to appended parents.  This module reclaims that debt without
re-provisioning the database from raw rows.

:class:`CompactionManager` compacts **one table at a time, in bounded
steps**.  A :class:`CompactionJob` is a generator-backed state machine;
each ``next()`` performs one bounded unit of work -- a batch of
``PAGES_PER_STEP`` page copies, or one climbing-index fold -- under the
``"Compact"`` ledger label, then yields.  Everything the job writes is
a *shadow* flash file; the live catalog is untouched until the final
swap step, so queries interleaved between steps read the old, fully
consistent image (same results, same tombstone filtering, same audit
profile).  The swap itself is a handful of in-RAM pointer moves.

What compacting table ``T`` covers:

* ``T``'s hidden heap and ``SKT(T)`` are rewritten without the
  tombstoned rows; surviving rows keep their relative order, so ids
  stay dense (``id_map[old] = new`` is monotonic).
* Every ancestor SKT has its ``T`` column remapped in place (a
  page-aligned rewrite -- dangling cells of already-dead ancestor rows
  map to 0 and are never read).
* The *ripple set* of climbing indexes -- those on ``T`` and on each
  descendant of ``T``, i.e. exactly the indexes carrying ``T`` among
  their levels -- is re-bulk-built where needed: an index is folded iff
  it has delta-log entries, or ``T``'s ids moved, or a subtree table's
  fk delta feeds one of its levels.  Indexes above ``T`` are never
  touched.
* Folded metadata is retired: tombstones and the tombstone log of
  ``T``, the fk deltas of ``T``'s subtree, the delta logs of folded
  indexes.

What the first three rewrite is worked out once, by
:meth:`FoldPlan.of`; before any shadow page is written, :func:`advise`
prices that plan against the FTL's *headroom* (unmapped physical
pages).  The rule is borrowed from CockroachDB's online schema
changes, which refuse to start an index backfill unless the store
could hold ~3x the projected footprint: running out of space
mid-build is strictly worse than never starting.  Below
``HEADROOM_FACTOR`` x the priced footprint the advisor *defers*; below
1x it *declines*.  Both raise :class:`~repro.errors.CompactionDeclined`
up front -- never an FTL out-of-space error halfway through a fold.

Interleaved DML is detected, not locked out: the job snapshots the
data generations of *every* table when it starts, and the manager
aborts and restarts it (shadow files freed, ``restarts`` counted) if
any moved between steps.  Not just the tables the fold reads: a
sibling's swap frees a shared ancestor SKT's heap mid-copy while only
the sibling's own generation moves.  ``data_generations[T]`` bumps
only when ``T`` itself had DML folded in (appends or a remap), so
cached plans of untouched tables survive; ``built_generations`` of the
whole subtree syncs so the next compaction still knows what is clean.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import filterfalse, repeat
from operator import itemgetter
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.core.loader import ancestor_maps
from repro.core.stats import TableStats
from repro.errors import CompactionDeclined, CompactionError
from repro.flash.constants import ID_SIZE
from repro.index.climbing import ClimbingIndex
from repro.storage.heap import HeapFile
from repro.storage.runs import decode_words, encode_words

if TYPE_CHECKING:  # pragma: no cover - import cycle with ghostdb
    from repro.core.catalog import SecureCatalog
    from repro.core.ghostdb import GhostDB

#: ledger label every compaction step runs under
COMPACT_LABEL = "Compact"

#: flash pages copied per heap/SKT step (an index fold is one step);
#: read when a copy batches, so a test may patch it
PAGES_PER_STEP = 32

#: advisor safety margin over the priced shadow footprint
HEADROOM_FACTOR = 3.0


# ----------------------------------------------------------------------
# structural helpers
# ----------------------------------------------------------------------
def subtree(schema, table: str) -> List[str]:
    """``table`` plus its descendants -- the tables whose climbing
    indexes carry ``table`` among their levels."""
    return [table] + list(schema.descendants(table))


def ripple_indexes(catalog: "SecureCatalog", table: str
                   ) -> List[Tuple[Tuple, ClimbingIndex]]:
    """``(key, index)`` pairs of every climbing index compacting
    ``table`` may have to fold: the indexes on ``table`` itself and on
    each descendant (``levels = [D] + ancestors(D)``, so ``table`` is
    a level of index-on-``D`` iff ``D`` is in ``table``'s subtree).
    Keys are ``("attr", D, col)`` / ``("id", D, None)``.
    """
    sub = set(subtree(catalog.schema, table))
    out: List[Tuple[Tuple, ClimbingIndex]] = []
    for (t, col), idx in sorted(catalog.attr_indexes.items()):
        if t in sub:
            out.append((("attr", t, col), idx))
    for t, idx in sorted(catalog.id_indexes.items()):
        if t in sub:
            out.append((("id", t, None), idx))
    return out


def index_needs_fold(catalog: "SecureCatalog", table: str,
                     idx: ClimbingIndex, remap: bool) -> bool:
    """Whether compacting ``table`` must re-bulk-build ``idx``.

    Yes if the index has appended (delta-log) entries, if ``table``'s
    ids are being remapped (the index stores them in some level), or if
    a *subtree* table's fk delta feeds one of the index's levels.  Fk
    deltas of tables above ``table`` are deliberately left in place --
    they belong to a higher compaction and lookups keep climbing them.
    """
    if remap or idx.delta_entries:
        return True
    sub = set(subtree(catalog.schema, table))
    return any(catalog.fk_deltas.get(u) for u in idx.levels if u in sub)


def is_dirty(catalog: "SecureCatalog", table: str) -> bool:
    """Whether ``table`` has any foldable debt: tombstones, a subtree
    fk delta, or delta-log entries on a ripple index.  Pure appends
    with already-folded indexes leave a table clean -- appends are
    physically in place, there is nothing to compact."""
    if catalog.tombstones[table]:
        return True
    if any(catalog.fk_deltas.get(u) for u in subtree(catalog.schema, table)):
        return True
    return any(idx.delta_entries for _, idx in ripple_indexes(catalog, table))


# ----------------------------------------------------------------------
# the fold plan and its price
# ----------------------------------------------------------------------
@dataclass
class FoldPlan:
    """The heaps and indexes folding ``table`` rewrites, worked out
    only here.  ``dead``: its sorted tombstoned ids.  ``rewrites``:
    ``(kind, owner, dead ids, remap column)`` in copy (and swap) order
    -- ``owner.heap`` minus the dead rows (image, then SKT), then each
    ancestor SKT with its ``table`` column remapped; none without
    tombstones.  ``folds``: the ripple ``(key, index)`` pairs to fold.
    """

    table: str
    dead: List[int]
    rewrites: List[Tuple[str, object, Sequence[int], Optional[str]]]
    folds: List[Tuple[Tuple, ClimbingIndex]]

    @classmethod
    def of(cls, catalog: "SecureCatalog", table: str) -> "FoldPlan":
        dead = sorted(catalog.tombstones[table])
        rewrites = []
        if dead:
            if catalog.images[table].heap is not None:
                rewrites.append(("heap", catalog.images[table], dead, None))
            if table in catalog.skts:
                rewrites.append(("skt", catalog.skts[table], dead, None))
            rewrites.extend(("ancestor-skts", catalog.skts[a], (), table)
                            for a in catalog.schema.ancestors(table)
                            if a in catalog.skts)
        folds = [(key, idx) for key, idx in ripple_indexes(catalog, table)
                 if index_needs_fold(catalog, table, idx, bool(dead))]
        return cls(table, dead, rewrites, folds)

    def price(self, catalog: "SecureCatalog") -> "CompactionAdvice":
        """The advisor's verdict on this plan.  The footprint is every
        shadow that coexists with its live original until the swap: a
        heap minus its dead rows at its live rows, a remapped heap at
        its current pages, a folded index at its current storage plus
        one page of builder slack per level."""
        pages: Dict[str, int] = {}
        for kind, owner, dead, column in self.rewrites:
            heap = owner.heap
            n = (heap.file.n_pages if column else
                 math.ceil((heap.n_rows - len(dead)) / heap.rows_per_page))
            if n or not column:
                pages[kind] = pages.get(kind, 0) + n
        page_size = catalog.token.page_size
        idx_pages = sum(math.ceil(idx.storage_bytes() / page_size)
                        + len(idx.levels) for _, idx in self.folds)
        if idx_pages:
            pages["indexes"] = idx_pages
        required = sum(pages.values())
        headroom = catalog.token.ftl.headroom_pages()
        # required == 0 is a pure fk-delta clear: no shadow writes
        if required == 0 or headroom >= HEADROOM_FACTOR * required:
            verdict = "proceed"
        else:
            verdict = "defer" if headroom >= required else "decline"
        return CompactionAdvice(
            self.table, verdict, required, headroom,
            " ".join(f"{kind}={n}p" for kind, n in pages.items()))


#: advisor verdicts, mildest first
VERDICTS = ("clean", "proceed", "defer", "decline")


@dataclass
class CompactionAdvice:
    """Outcome of pricing one table's compaction against flash headroom
    (unmapped physical pages, what :meth:`Ftl.allocate` can still hand
    out): ``clean`` -- no debt, no job; ``proceed`` -- headroom >=
    ``HEADROOM_FACTOR`` x required; ``defer`` -- the job would fit now
    but leaves less than that margin, retry after freeing space;
    ``decline`` -- the shadows cannot fit at all.  ``defer`` and
    ``decline`` raise :class:`~repro.errors.CompactionDeclined` before
    the first shadow write, never an out-of-space error mid-fold.
    """

    table: str
    verdict: str                 # clean | proceed | defer | decline
    required_pages: int = 0
    headroom_pages: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict in ("clean", "proceed")

    def describe(self) -> str:
        out = (f"advisor={self.verdict} required={self.required_pages}p "
               f"headroom={self.headroom_pages}p x{HEADROOM_FACTOR:g}")
        if self.detail:
            out += f" ({self.detail})"
        return out


def advise(catalog: "SecureCatalog", table: str) -> CompactionAdvice:
    """The advisor's verdict on folding ``table`` now: ``clean`` when
    it has no debt, else the price of its :class:`FoldPlan`."""
    if not is_dirty(catalog, table):
        return CompactionAdvice(
            table, "clean",
            headroom_pages=catalog.token.ftl.headroom_pages())
    return FoldPlan.of(catalog, table).price(catalog)


# ----------------------------------------------------------------------
# status / progress reporting
# ----------------------------------------------------------------------
@dataclass
class TableCompactionStatus:
    """One table's foldable debt, as reported by ``compaction_status()``."""

    table: str
    dirty: bool
    tombstones: int
    tombstone_log_bytes: int
    delta_entries: int
    delta_log_bytes: int
    fk_delta_edges: int
    advisor: CompactionAdvice
    job_phase: Optional[str] = None

    def describe(self) -> str:
        bits = [f"{self.table}:", "dirty" if self.dirty else "clean"]
        if self.tombstones:
            bits.append(f"tombstones={self.tombstones}"
                        f"({self.tombstone_log_bytes}B)")
        if self.delta_entries:
            bits.append(f"delta_entries={self.delta_entries}"
                        f"({self.delta_log_bytes}B)")
        if self.fk_delta_edges:
            bits.append(f"fk_delta_edges={self.fk_delta_edges}")
        bits.append(self.advisor.describe())
        if self.job_phase:
            bits.append(f"job[{self.job_phase}]")
        return " ".join(bits)


@dataclass
class CompactionProgress:
    """What one ``db.compact()`` call accomplished."""

    table: str
    state: str                   # clean | in-progress | done
    steps_run: int = 0
    phase: str = ""
    restarts: int = 0
    pages_rewritten: int = 0
    max_step_us: float = 0.0
    last_step_us: float = 0.0
    advisor: Optional[CompactionAdvice] = None

    @property
    def done(self) -> bool:
        return self.state in ("clean", "done")


# ----------------------------------------------------------------------
# the job
# ----------------------------------------------------------------------
class CompactionJob:
    """Bounded-step compaction of one table.

    Generator-backed: :meth:`step` advances :meth:`_steps` by one
    ``yield``, i.e. one bounded unit of work.  All writes before the
    final step go to shadow flash files; :meth:`abort` discards them
    without the live image ever having changed.  The terminal step
    performs the swap and folds the metadata, then the generator
    returns.
    """

    def __init__(self, db: "GhostDB", table: str, seq: int,
                 restarts: int = 0):
        self.db = db
        self.table = table
        self.restarts = restarts
        self._tag = f"~c{seq}"             # unique shadow-file suffix
        # data-generation snapshot; any movement means DML interleaved
        # and the frozen id_map / shadow contents may be stale
        self.guard = dict(db.catalog.data_generations)
        self.advisor: Optional[CompactionAdvice] = None
        self.finished = False
        self.steps_run = 0
        self.pages_rewritten = 0
        self.max_step_us = 0.0
        self.last_step_us = 0.0
        self.phase = "plan"
        self._shadow_indexes: List[ClimbingIndex] = []
        # one shadow per started ``FoldPlan.rewrites`` entry, same order
        self._shadow_heaps: List[HeapFile] = []
        self._gen: Iterator[str] = self._steps()

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run one bounded step; True once the job completed (swapped)."""
        token = self.db.token
        ledger = token.ledger
        before = ledger.snapshot()
        before_pages = self.pages_rewritten
        with token.label(COMPACT_LABEL):
            try:
                self.phase = next(self._gen)
            except StopIteration:
                self.finished = True
        self.steps_run += 1
        self.last_step_us = (ledger.snapshot() - before).total_time_us()
        self.max_step_us = max(self.max_step_us, self.last_step_us)
        ledger.count("compaction_steps")
        ledger.count("compaction_pages_rewritten",
                     self.pages_rewritten - before_pages)
        return self.finished

    def abort(self) -> None:
        """Free every shadow file (all carry the job's tag), half-built
        ones a power cut left included; the live image is untouched."""
        self.db.catalog.token.store.free_tagged(self._tag)
        self._shadow_indexes.clear()
        self._shadow_heaps.clear()
        self._gen.close()

    def progress(self, state: str) -> CompactionProgress:
        return CompactionProgress(
            table=self.table, state=state, steps_run=self.steps_run,
            phase=self.phase, restarts=self.restarts,
            pages_rewritten=self.pages_rewritten,
            max_step_us=self.max_step_us, last_step_us=self.last_step_us,
            advisor=self.advisor,
        )

    # ------------------------------------------------------------------
    def _copy_heap_batched(self, src: HeapFile, dead: Sequence[int],
                           remap: Optional[Tuple[int, Dict[int, int]]]
                           ) -> Iterator[str]:
        """Yield-per-batch copy of ``src`` into a new shadow heap.

        Rows whose ids are in ``dead`` (sorted) are dropped; ``remap =
        (pos, id_map)`` rewrites column ``pos`` of an SKT to
        ``id_map.get(cell, 0)``.  Records are fixed width and the codec
        round-trips every record it wrote (``pack(unpack(b)) == b`` for
        ints, finite floats and NUL-padded chars), so rows move as
        bytes: each page is read (and charged) once, exactly the bytes
        its rows occupy; the runs between its dead rows' offsets are
        appended to one output buffer, which is cut into full pages as
        it fills.  An SKT row is a fixed number of u32 words (ids are
        below 2**31, so the signed codec writes the same bytes), which
        is what lets ``remap`` rewrite a strided slice of the page's
        words.  The shadow's layout is byte-identical to a fresh bulk
        build of the surviving rows; it is appended to
        ``self._shadow_heaps``.
        """
        base = src.file.name.split("~")[0]
        shadow = HeapFile(self.db.catalog.token.store.create(
            base + self._tag), src.codec, src.page_size)
        self._shadow_heaps.append(shadow)
        width = src.codec.row_width
        per_page = src.rows_per_page
        page_bytes = per_page * width
        if remap is not None:
            pos, id_map = remap
            stride = width // ID_SIZE
        buf = bytearray()
        n_pages = src.file.n_pages
        for first in range(0, n_pages, PAGES_PER_STEP):
            last = min(first + PAGES_PER_STEP, n_pages)
            for page in range(first, last):
                lo = page * per_page
                n_here = min(per_page, src.n_rows - lo)
                if n_here <= 0:
                    continue
                raw = src.file.read_page(page, nbytes=n_here * width)
                if remap is not None:
                    words = decode_words(raw)
                    words[pos::stride] = map(id_map.get, words[pos::stride],
                                             repeat(0))
                    raw = encode_words(words)
                start = 0
                for rid in dead[bisect_left(dead, lo):
                                bisect_left(dead, lo + n_here)]:
                    cut = (rid - lo) * width
                    buf += raw[start:cut]
                    start = cut + width
                buf += raw[start:]
                while len(buf) >= page_bytes:
                    shadow.file.append_page(buf[:page_bytes])
                    shadow.n_rows += per_page
                    del buf[:page_bytes]
            self.pages_rewritten += last - first
            yield f"{base} pages {last}/{n_pages}"
        if buf:
            shadow.file.append_page(buf)
            shadow.n_rows += len(buf) // width

    def _charge_index_read(self, idx: ClimbingIndex) -> None:
        """Read the old index's pages -- the honest read cost of
        folding it (the host rebuilds from retained raw rows, but a
        real token would read tree, runs and delta log).  Each file is
        one run (one charge): nothing stops between its pages."""
        for f in idx.storage_files():
            f.read_pages(range(f.n_pages))

    # ------------------------------------------------------------------
    def _steps(self) -> Iterator[str]:
        db = self.db
        catalog = db.catalog
        schema = catalog.schema
        store = catalog.token.store
        page_size = catalog.token.page_size
        T = self.table
        tag = self._tag

        # ---- plan: price the job, freeze the dense remap -------------
        plan = FoldPlan.of(catalog, T)
        self.advisor = plan.price(catalog)
        if not self.advisor.ok:
            need = self.advisor.required_pages
            deferred = self.advisor.verdict == "defer"
            margin = (f"{HEADROOM_FACTOR:g}x the priced shadow footprint"
                      if deferred else "the priced shadow footprint")
            raise CompactionDeclined(
                f"compaction of {T!r} "
                f"{'deferred' if deferred else 'declined'} by the "
                f"advisor: flash headroom "
                f"{self.advisor.headroom_pages} pages is below {margin} "
                f"({need} pages: {self.advisor.detail}); free space or "
                f"compact smaller tables first, then retry"
            )
        dead = set(plan.dead)
        live_ids = list(filterfalse(dead.__contains__,
                                    range(catalog.n_rows(T))))
        id_map = dict(zip(live_ids, range(len(live_ids))))
        yield "planned"

        # ---- heaps: T's image and SKT without the dead rows, ancestor
        # SKTs with the T column remapped -- batched page copies ------
        for _, owner, dead_ids, column in plan.rewrites:
            remap = (None if column is None else
                     (owner.column_positions([column])[0], id_map))
            yield from self._copy_heap_batched(owner.heap, dead_ids, remap)

        # ---- ripple indexes: one fresh bulk build per step -----------
        if plan.folds:
            anc_maps = ancestor_maps(schema, catalog.raw_rows,
                                     catalog.tombstones, (T, id_map))
            yield "ancestor-maps"
        for (kind, d_table, col), idx in plan.folds:
            self._charge_index_read(idx)
            t = schema.table(d_table)
            rows = catalog.raw_rows[d_table]
            # the live rows' old ids, and the ids the fresh build gives them
            if d_table == T:
                keep, out_ids = live_ids, range(len(live_ids))
            else:
                keep = out_ids = list(filterfalse(
                    catalog.tombstones[d_table].__contains__,
                    range(len(rows))))
            keys = (out_ids if kind == "id" else
                    map(itemgetter(t.column_position(col)),
                        map(rows.__getitem__, keep)))
            ancestors = schema.ancestors(d_table)
            shadow_idx = ClimbingIndex.build(
                store, f"{d_table}_{col or 'id'}{tag}",
                t.column(col or "id").type, [d_table] + ancestors,
                zip(keys, out_ids),
                {a: anc_maps[d_table][a] for a in ancestors}, page_size,
            )
            self._shadow_indexes.append(shadow_idx)
            self.pages_rewritten += sum(f.n_pages for f
                                        in shadow_idx.storage_files())
            yield (f"fold {d_table}.{col or 'id'} "
                   f"({idx.delta_entries} delta entries)")

        # ---- terminal step: swap shadows in, fold the metadata -------
        self.phase = "swap"
        remap = bool(plan.dead)
        if remap:
            db.vis_server.push_compaction(T, plan.dead)
            for (_, owner, _, _), shadow in zip(plan.rewrites,
                                                self._shadow_heaps):
                old, owner.heap = owner.heap, shadow
                old.free()
            catalog.images[T].n_rows = len(live_ids)
            # retained raw rows follow: T's list shrinks to the live
            # rows (rebound in place -- the reference oracle shares the
            # dict), the parent's fk cells move to the new dense ids
            catalog.raw_rows[T] = [catalog.raw_rows[T][rid]
                                   for rid in live_ids]
            parent = schema.parent(T)
            if parent is not None:
                tp = schema.table(parent)
                pos = tp.column_position(schema.fk_to(parent, T).name)
                dead_p = catalog.tombstones[parent]
                remapped = []
                for pid, row in enumerate(catalog.raw_rows[parent]):
                    cells = list(row)
                    cells[pos] = (id_map[cells[pos]] if pid not in dead_p
                                  else id_map.get(cells[pos], 0))
                    remapped.append(tuple(cells))
                catalog.raw_rows[parent] = remapped
                # stats content follows the remapped fk values; the
                # stats generation does not move (same carry-forward the
                # old full rebuild gave clean tables)
                catalog.stats[parent] = TableStats.from_rows(
                    tp, [row for pid, row in enumerate(remapped)
                         if pid not in dead_p]
                )
        for ((kind, d_table, col), _), shadow_idx in zip(
                plan.folds, self._shadow_indexes):
            if kind == "attr":
                old_idx = catalog.attr_indexes[(d_table, col)]
                catalog.attr_indexes[(d_table, col)] = shadow_idx
            else:
                old_idx = catalog.id_indexes[d_table]
                catalog.id_indexes[d_table] = shadow_idx
            old_idx.free()
        self._shadow_heaps.clear()
        self._shadow_indexes.clear()
        # folded metadata: every consumer index of a subtree fk delta is
        # in the ripple set and was rebuilt above, so the deltas retire
        for u in subtree(schema, T):
            catalog.fk_deltas[u].clear()
        if remap:
            catalog.tombstones[T].clear()   # in place: the oracle shares it
            catalog.drop_tombstone_log(T)
            catalog.stats[T] = TableStats.from_rows(
                schema.table(T), catalog.raw_rows[T]
            )
        # generations: bump T's data generation only if T itself had DML
        # folded in (appends since the last build, or a remap); cached
        # plans of untouched tables must survive, exactly as the old
        # stop-the-world rebuild guaranteed
        if catalog.data_generations[T] != catalog.built_generations[T] \
                or remap:
            catalog.bump_generation(T)
        for u in subtree(schema, T):
            catalog.built_generations[u] = catalog.data_generations[u]


# ----------------------------------------------------------------------
# the manager
# ----------------------------------------------------------------------
def check_max_steps(max_steps: Optional[int]) -> None:
    """Raise :class:`CompactionError` unless ``max_steps`` is ``None``
    (run to completion) or at least one step."""
    if max_steps is not None and max_steps < 1:
        raise CompactionError(
            f"max_steps must be at least 1 (or None), got {max_steps}")


class CompactionManager:
    """Owns at most one in-flight :class:`CompactionJob` per table.

    Created by ``build()``; an image carries its shadow-tag sequence,
    so compaction after a restore never reuses a ``~cN`` tag already
    live in the store (snapshots wait for :meth:`in_flight` to empty).
    """

    def __init__(self, db: "GhostDB"):
        self._db = db
        self._jobs: Dict[str, CompactionJob] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    def compact(self, table: str, max_steps: Optional[int] = None
                ) -> CompactionProgress:
        """Advance ``table``'s compaction by up to ``max_steps`` steps.

        ``max_steps=None`` runs the job to completion.  A job survives
        across calls; interleaved DML triggers an abort-and-restart
        (counted, shadow files freed) rather than a wrong image.
        """
        check_max_steps(max_steps)
        db = self._db
        catalog = db.catalog
        catalog.schema.table(table)            # validates the name
        job = self._jobs.get(table)
        restarts = 0
        steps = 0
        while max_steps is None or steps < max_steps:
            if job is not None and job.guard != catalog.data_generations:
                # DML slipped in between steps: the frozen remap and
                # shadow contents may be stale -- throw them away
                restarts = job.restarts + 1
                job.abort()
                self._jobs.pop(table, None)
                job = None
                db.token.ledger.count("compaction_restarts")
            if job is None:
                if not is_dirty(catalog, table):
                    return CompactionProgress(
                        table=table, state="clean", restarts=restarts,
                        advisor=advise(catalog, table))
                self._seq += 1
                job = CompactionJob(db, table, self._seq, restarts)
                self._jobs[table] = job
            try:
                done = job.step()
            except CompactionDeclined:
                job.abort()
                self._jobs.pop(table, None)
                raise
            steps += 1
            if done:
                self._jobs.pop(table, None)
                self._abort_orphans()
                return job.progress("done")
        return job.progress("in-progress")

    def _abort_orphans(self) -> None:
        """Abort the jobs a swap just left without work: it folded
        their table's debt too (a ripple index they share), so the
        table is clean, no ``compact`` call will step them again, and
        their shadow files would sit on flash -- and block
        ``snapshot`` -- for good.  A job whose table is still dirty
        stays: its next step restarts it, and is counted."""
        catalog = self._db.catalog
        for table in [t for t in self._jobs if not is_dirty(catalog, t)]:
            self._jobs.pop(table).abort()

    # ------------------------------------------------------------------
    def in_flight(self) -> List[str]:
        """Tables with a started, unfinished job (sorted).  A restored
        image could not resume one: snapshots wait for this to be empty."""
        return sorted(self._jobs)

    def job_phase(self, table: str) -> Optional[str]:
        job = self._jobs.get(table)
        if job is None:
            return None
        return f"step {job.steps_run}: {job.phase}"

    def abort_all(self) -> List[str]:
        """Discard every in-flight job (re-provision and crash paths).

        Returns the aborted tables; all job writes went to shadow
        files, so aborting frees them and leaves the live structures
        untouched (abort-and-restart is the compaction crash contract).
        """
        aborted = self.in_flight()
        for job in self._jobs.values():
            job.abort()
        self._jobs.clear()
        return aborted

    def status(self) -> Dict[str, TableCompactionStatus]:
        """Per-table foldable debt + advisor verdicts, schema order."""
        catalog = self._db.catalog
        out: Dict[str, TableCompactionStatus] = {}
        for table in catalog.schema.tables:
            own = catalog.indexes_on(table)
            out[table] = TableCompactionStatus(
                table=table,
                dirty=is_dirty(catalog, table),
                tombstones=len(catalog.tombstones[table]),
                tombstone_log_bytes=catalog.tombstone_log_bytes(table),
                delta_entries=sum(i.delta_entries for i in own),
                delta_log_bytes=sum(i.delta_log_bytes for i in own),
                fk_delta_edges=sum(
                    len(v) for v in catalog.fk_deltas[table].values()
                ),
                advisor=advise(catalog, table),
                job_phase=self.job_phase(table),
            )
        return out
