"""Flash Translation Layer.

Provides a rewritable *logical* page space over the program-once NAND
array.  Updates are performed out of place (a rewritten logical page is
appended at the current write frontier and the old physical page is
invalidated), which is why the paper notes that "updates are not
performed in place in Flash".  When free blocks run low, garbage
collection relocates the valid pages of a victim block and erases it;
the relocation traffic is charged to the ledger exactly like user I/O,
reproducing the paper's statement that reported I/O "includes the I/O
performed by the Flash Translation Layer which manages wear levelling,
garbage collection and translation of logical addresses to physical".

Wear levelling is greedy-with-tie-break: the GC victim is the block
with the most invalid pages, ties broken towards the least-erased
block.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Optional, Tuple

from repro.errors import BadAddressError, OutOfSpaceError
from repro.flash.constants import (ERASE_PRICE, READ_PRICE, WRITE_PRICE,
                                   FlashParams)
from repro.flash.nand import NandFlash
from repro.flash.stats import (ERASE, GC_READ, GC_WRITE, READ, WRITE,
                               CostLedger)

_UNMAPPED = -1


class Ftl:
    """Out-of-place-update FTL with greedy GC and wear levelling."""

    def __init__(self, nand: NandFlash, ledger: CostLedger,
                 params: Optional[FlashParams] = None):
        self.nand = nand
        self.ledger = ledger
        self.params = params or nand.params
        n_logical = self.nand.n_pages  # logical space as big as physical
        self._l2p: list[int] = [_UNMAPPED] * n_logical
        self._p2l: Dict[int, int] = {}
        ppb = self.params.pages_per_block
        self._invalid_per_block = [0] * self.params.n_blocks
        self._free_blocks: list[int] = list(range(self.params.n_blocks))
        self._active_block = self._free_blocks.pop()
        self._frontier = self._active_block * ppb
        self._next_lpn = 0
        self._free_lpns: list[int] = []
        self._in_gc = False
        # statistics visible to tests
        self.gc_runs = 0
        self.gc_pages_moved = 0

    # ------------------------------------------------------------------
    # durable form
    # ------------------------------------------------------------------
    #: allocator, write-frontier and GC state: scalars / int vectors
    _DURABLE_SCALARS = ("_active_block", "_frontier", "_next_lpn",
                        "gc_runs", "gc_pages_moved")
    _DURABLE_VECTORS = ("_invalid_per_block", "_free_blocks", "_free_lpns")

    def to_meta(self) -> Tuple[Dict[str, Any], bytes]:
        """Durable form of the mapping and of the array below it, as
        ``(meta, blob)``: the logical->physical map, the fields named
        above, and :meth:`NandFlash.to_meta` over exactly the mapped
        pages (ascending ``ppn``).

        Every lpn at or past ``_next_lpn`` was never allocated and is
        unmapped, so only the allocated prefix of the map is stored --
        the big vector of a mostly-empty device stays tiny.  The
        physical->logical map is the inverse and is not stored.
        """
        nand_meta, blob = self.nand.to_meta(sorted(self._p2l))
        meta = {"nand": nand_meta,
                "l2p": array("q", self._l2p[:self._next_lpn]).tobytes()}
        for name in self._DURABLE_SCALARS:
            meta[name] = getattr(self, name)
        for name in self._DURABLE_VECTORS:
            meta[name] = array("q", getattr(self, name)).tobytes()
        return meta, blob

    def from_meta(self, meta: Dict[str, Any], blob) -> None:
        """Adopt :meth:`to_meta` output (``blob`` backs the NAND lazily):
        same mapping, same free lists, same future GC behaviour."""
        self.nand.from_meta(meta["nand"], blob)
        prefix = array("q", meta["l2p"]).tolist()
        self._l2p = prefix + [_UNMAPPED] * (self.nand.n_pages - len(prefix))
        self._p2l = {ppn: lpn for lpn, ppn in enumerate(prefix)
                     if ppn != _UNMAPPED}
        for name in self._DURABLE_SCALARS:
            setattr(self, name, meta[name])
        for name in self._DURABLE_VECTORS:
            setattr(self, name, array("q", meta[name]).tolist())

    # ------------------------------------------------------------------
    # logical page allocation
    # ------------------------------------------------------------------
    def allocate(self, n: int = 1) -> list[int]:
        """Reserve ``n`` logical page numbers (not yet written)."""
        lpns = []
        while n > 0 and self._free_lpns:
            lpns.append(self._free_lpns.pop())
            n -= 1
        if n > 0:
            if self._next_lpn + n > len(self._l2p):
                raise OutOfSpaceError("logical page space exhausted")
            lpns.extend(range(self._next_lpn, self._next_lpn + n))
            self._next_lpn += n
        return lpns

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def write(self, lpn: int, data: bytes) -> None:
        """(Re)write logical page ``lpn`` with ``data``, out of place.

        Crash-safe ordering: the new physical page is programmed
        *before* the old one is invalidated or the mapping updated, so
        a power loss mid-program leaves the logical page still mapped
        to its previous, intact payload -- the torn page is unmapped
        garbage, counted for GC (:meth:`_program`).  The old mapping is
        re-read after the claim because claiming may trigger GC, which
        can relocate the very page we are about to invalidate.
        """
        self._check_lpn(lpn)
        ppn = self._claim_physical_page()
        self._program(ppn, data)
        old = self._l2p[lpn]
        if old != _UNMAPPED:
            self._invalidate(old)
        self._l2p[lpn] = ppn
        self._p2l[ppn] = lpn
        self.ledger.charge(WRITE, WRITE_PRICE, 1, len(data))

    def peek(self, lpn: int) -> bytes:
        """Uncharged read of a logical page's full stored payload.

        Reads go through :meth:`~repro.flash.store.FlashFile.read_page`,
        which peeks (filling its page cache read-through) and files the
        *user-visible* transfer with :meth:`charge_read`; peeking never
        moves simulated bytes on its own.
        """
        self._check_lpn(lpn)
        ppn = self._l2p[lpn]
        return b"" if ppn == _UNMAPPED else self.nand.read_page(ppn)

    def charge_read(self, pages: int, nbytes: int) -> None:
        """Charge ``pages`` page reads moving ``nbytes`` into RAM in all.

        Table 1: 25us register load per page (the whole page always
        reaches the data register) plus 50ns per byte actually
        transferred to RAM.  The ledger holds integer counts, so one
        charge of a run equals the sum of its pages' -- and a page-cache
        hit costs the same simulated time and counters as a miss.
        """
        self.ledger.charge(READ, READ_PRICE, pages, nbytes)

    def trim(self, lpn: int) -> None:
        """Free logical page ``lpn``; its physical page becomes garbage."""
        self._check_lpn(lpn)
        ppn = self._l2p[lpn]
        if ppn != _UNMAPPED:
            self._invalidate(ppn)
            self._l2p[lpn] = _UNMAPPED
        self._free_lpns.append(lpn)

    def scan_mapped(self) -> list[tuple[int, int]]:
        """Recovery scan: checksum-verify every mapped page.

        Walks the physical->logical map reading each page through the
        NAND's verified path and returns ``[(lpn, ppn)]`` for pages
        whose checksum failed persistently.  An uncharged maintenance
        pass (the simulated controller runs it below the FTL's cost
        accounting); with crash-safe write ordering the scan comes back
        empty after any power loss -- torn pages are never mapped.
        """
        from repro.errors import FlashCorruption

        corrupt: list[tuple[int, int]] = []
        for ppn in sorted(self._p2l):
            try:
                self.nand.read_page(ppn)
            except FlashCorruption:
                corrupt.append((self._p2l[ppn], ppn))
        return corrupt

    # ------------------------------------------------------------------
    # occupancy
    # ------------------------------------------------------------------
    def mapped_pages(self) -> int:
        """Number of logical pages currently holding data."""
        return len(self._p2l)

    def headroom_pages(self) -> int:
        """Logical pages that can still be written before the device
        is full: total capacity minus the pages holding live data.
        Garbage pages count as headroom (GC reclaims them), which is
        why sizing decisions -- the compaction advisor's in particular
        -- apply a safety factor on top of this number rather than
        trusting it raw.
        """
        return len(self._l2p) - len(self._p2l)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < len(self._l2p):
            raise BadAddressError(f"logical page {lpn} out of range")

    def _invalidate(self, ppn: int) -> None:
        self._p2l.pop(ppn, None)
        self.nand.discard_page(ppn)
        self._invalid_per_block[self.nand.block_of(ppn)] += 1

    def _program(self, ppn: int, data: bytes) -> None:
        """Program a page the frontier just passed.  A program that
        raises (a power cut) leaves it unmapped, so it is counted
        invalid at once: GC sees it and reclaims its block."""
        try:
            self.nand.program_page(ppn, data)
        except Exception:
            self._invalid_per_block[self.nand.block_of(ppn)] += 1
            raise

    def _frontier_full(self) -> bool:
        return self._frontier >= \
            (self._active_block + 1) * self.params.pages_per_block

    def _claim_physical_page(self) -> int:
        """The next page at the write frontier, opening a block when
        the active one is full.  A GC run first: its relocations claim
        pages through here and may open a block of their own, so the
        frontier is re-read after it -- one active block at a time, and
        no block is left partly programmed behind it."""
        if self._frontier_full():
            if (not self._in_gc and len(self._free_blocks)
                    <= self.params.gc_free_block_threshold):
                self._in_gc = True
                try:
                    self._garbage_collect()
                finally:
                    self._in_gc = False
            if self._frontier_full():
                if not self._free_blocks:
                    raise OutOfSpaceError("no free flash blocks")
                self._active_block = self._free_blocks.pop()
                self._frontier = \
                    self._active_block * self.params.pages_per_block
        ppn = self._frontier
        self._frontier += 1
        return ppn

    def _pick_victim(self) -> Optional[int]:
        best: Optional[int] = None
        best_key = None
        for block, invalid in enumerate(self._invalid_per_block):
            if invalid == 0 or block == self._active_block:
                continue
            if block in self._free_blocks:
                continue
            key = (-invalid, self.nand.erase_counts[block])
            if best_key is None or key < best_key:
                best, best_key = block, key
        return best

    def _garbage_collect(self) -> None:
        """Reclaim blocks until above the free threshold (best effort)."""
        target = self.params.gc_free_block_threshold + 1
        while len(self._free_blocks) < target:
            victim = self._pick_victim()
            if victim is None:
                return
            self.gc_runs += 1
            for ppn in self.nand.pages_of_block(victim):
                lpn = self._p2l.get(ppn)
                if lpn is None:
                    continue
                # relocate a valid page: read + program, both charged
                data = self.nand.read_page(ppn)
                self.ledger.charge(GC_READ, READ_PRICE, 1, len(data))
                dest = self._claim_physical_page()
                self._program(dest, data)
                self.ledger.charge(GC_WRITE, WRITE_PRICE, 1, len(data))
                self._p2l.pop(ppn)
                self._p2l[dest] = lpn
                self._l2p[lpn] = dest
                # the source is garbage now: counted, in case a cut
                # stops this run before the erase below
                self._invalid_per_block[victim] += 1
                self.gc_pages_moved += 1
            self._invalid_per_block[victim] = 0
            self.nand.erase_block(victim)
            self.ledger.charge(ERASE, ERASE_PRICE, 1)
            self._free_blocks.insert(0, victim)
