"""Raw NAND flash array.

Models the physical constraints that shape everything above it:

* the unit of read/program is one *page* (2 KB by default);
* a page can only be programmed once after an erase;
* erases happen at *block* granularity (64 pages by default).

The FTL (:mod:`repro.flash.ftl`) builds a rewritable logical page space
on top of these constraints; user code never touches this module
directly.

Fault model (PR 10): every page program records a CRC32 of the
*intended* payload in a spare-area dict, and every read verifies it.
An optional ``fault_hook`` lets the fault-injection layer
(:mod:`repro.faults.flash`) mangle payloads in flight -- torn writes,
read bit-flips -- or raise :class:`~repro.errors.PowerLoss` at a chosen
write ordinal.  A power loss latches the device dead (``failed``)
until :meth:`power_on`; a torn program stores whatever prefix reached
the array while keeping the intended CRC, so the next read detects the
tear instead of serving silent garbage.  Transient read flips are
healed by a bounded internal retry (the controller's ECC retry path);
a persistent mismatch surfaces as :class:`~repro.errors.FlashCorruption`.
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any, Callable, Dict, Optional

from repro.errors import (BadAddressError, FlashCorruption, PowerLoss,
                          ProgramError)
from repro.flash.constants import FlashParams

#: page states
ERASED = 0
PROGRAMMED = 1

#: bounded internal read retry -- transient bit-flips vanish on re-read
READ_RETRIES = 3


class NandFlash:
    """A physical NAND array: ``n_blocks`` blocks of ``pages_per_block`` pages."""

    def __init__(self, params: FlashParams):
        self.params = params
        self.n_pages = params.n_blocks * params.pages_per_block
        self._state = bytearray(self.n_pages)  # ERASED / PROGRAMMED
        self._data: dict[int, bytes] = {}
        self.erase_counts = [0] * params.n_blocks
        # spare area: ppn -> CRC32 of the *intended* payload, written
        # atomically with the program in the model (the real spare area
        # is programmed in the same page-program operation)
        self._spare: dict[int, int] = {}
        # lazy backing store (durable-image restore): ppn -> (offset,
        # length) into _backing_buf; payloads materialize into _data on
        # first read, so restore never touches cold pages
        self._backing: dict[int, tuple[int, int]] = {}
        self._backing_buf = None
        # fault injection: callable(op, ppn, data) -> data, may raise
        # PowerLoss; None in production
        self.fault_hook: Optional[Callable[[str, int, bytes], bytes]] = None
        #: latched after a power loss until power_on()
        self.failed = False
        #: reads healed by the internal retry loop (visible to tests)
        self.read_retries = 0

    def __getstate__(self) -> Dict[str, Any]:
        """The image form: page states and wear counters as they are,
        and the pages with a payload -- the FTL keeps those to exactly
        the pages it maps -- as a lazy backing: their payloads back to
        back in one out-of-band :class:`pickle.PickleBuffer`, with each
        page's ``(offset, length)`` and spare CRC.

        Invalid pages keep their state but not payload or CRC: no read
        path reaches them before their block is erased, and a
        host-visible image must not hold what was logically deleted.
        Fault hook, power latch and ``read_retries`` belong to the
        running device, not to its content.

        Restored, a backed page behaves exactly like a programmed one:
        its bytes are copied out of the buffer (typically a
        ``memoryview`` over an ``mmap`` of the image) on its first
        :meth:`read_page`, an :meth:`erase_block` drops the backing
        entry, and its spare CRC came back with it, so torn writes that
        predate the snapshot are still detected.
        """
        spare = dict(sorted(self._spare.items()))
        backing, parts = {}, []
        offset = 0
        for ppn in spare:
            # the verified physical accessor: falls through to the lazy
            # backing, so re-snapshotting a restored array works
            payload = self.read_page(ppn)
            backing[ppn] = (offset, len(payload))
            parts.append(payload)
            offset += len(payload)
        return {**self.__dict__, "_data": {}, "_spare": spare,
                "_backing": backing,
                "_backing_buf": pickle.PickleBuffer(b"".join(parts)),
                "fault_hook": None, "failed": False, "read_retries": 0}

    def power_on(self) -> None:
        """Clear the power-loss latch; the array accepts I/O again."""
        self.failed = False

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    def block_of(self, ppn: int) -> int:
        """Block index containing physical page ``ppn``."""
        return ppn // self.params.pages_per_block

    def pages_of_block(self, block: int) -> range:
        """Physical page numbers belonging to ``block``."""
        ppb = self.params.pages_per_block
        return range(block * ppb, (block + 1) * ppb)

    def _check_ppn(self, ppn: int) -> None:
        if not 0 <= ppn < self.n_pages:
            raise BadAddressError(f"physical page {ppn} out of range")

    # ------------------------------------------------------------------
    # physical operations
    # ------------------------------------------------------------------
    def program_page(self, ppn: int, data: bytes) -> None:
        """Program one page.  Raises if the page was not erased first."""
        self._check_ppn(ppn)
        if self.failed:
            raise PowerLoss("token is powered off")
        if self._state[ppn] != ERASED:
            raise ProgramError(f"page {ppn} programmed twice without erase")
        if len(data) > self.params.page_size:
            raise BadAddressError(
                f"payload of {len(data)} bytes exceeds page size "
                f"{self.params.page_size}"
            )
        intended = bytes(data)
        stored = intended
        if self.fault_hook is not None:
            try:
                stored = self.fault_hook("program", ppn, intended)
            except PowerLoss as exc:
                # the cut interrupted this very program: whatever prefix
                # reached the array is stored against the *intended*
                # CRC -- the torn write the read path must detect
                if exc.partial is not None:
                    self._state[ppn] = PROGRAMMED
                    self._data[ppn] = bytes(exc.partial)
                    self._spare[ppn] = zlib.crc32(intended)
                self.failed = True
                raise
        self._state[ppn] = PROGRAMMED
        self._data[ppn] = bytes(stored)
        self._spare[ppn] = zlib.crc32(intended)

    def read_page(self, ppn: int) -> bytes:
        """Return the content of one page (empty pages read as b'').

        Verifies the spare-area CRC when one exists; transient faults
        injected by ``fault_hook`` are retried up to ``READ_RETRIES``
        times before a persistent mismatch raises
        :class:`FlashCorruption`.
        """
        self._check_ppn(ppn)
        if self.failed:
            raise PowerLoss("token is powered off")
        data = self._data.get(ppn)
        if data is None and self._backing:
            entry = self._backing.pop(ppn, None)
            if entry is not None:
                offset, length = entry
                data = bytes(self._backing_buf[offset:offset + length])
                self._data[ppn] = data
        if data is None:
            return b""
        expect = self._spare.get(ppn)
        for attempt in range(READ_RETRIES):
            out = data
            if self.fault_hook is not None:
                out = self.fault_hook("read", ppn, data)
            if expect is None or zlib.crc32(out) == expect:
                return out
            self.read_retries += 1
        raise FlashCorruption(
            f"page {ppn} failed checksum after {READ_RETRIES} reads "
            f"(torn write or corrupt image)"
        )

    def image_backed_pages(self) -> int:
        """Pages whose payload still lives only in the restored image
        (never read since the restore, so never copied out)."""
        return len(self._backing)

    def discard_page(self, ppn: int) -> None:
        """Forget the payload of a page its owner invalidated.

        The page stays PROGRAMMED until its block is erased, but no
        mapped read, GC move or durable image touches an invalid page
        again, so its bytes would only pile up in host memory until the
        array wraps (512 MB at the default geometry).
        """
        self._data.pop(ppn, None)
        self._spare.pop(ppn, None)
        if self._backing:
            self._backing.pop(ppn, None)

    def erase_block(self, block: int) -> None:
        """Erase every page of ``block`` and bump its wear counter."""
        if not 0 <= block < self.params.n_blocks:
            raise BadAddressError(f"block {block} out of range")
        backing = self._backing
        for ppn in self.pages_of_block(block):
            self._state[ppn] = ERASED
            self._data.pop(ppn, None)
            self._spare.pop(ppn, None)
            if backing:
                backing.pop(ppn, None)
        self.erase_counts[block] += 1
