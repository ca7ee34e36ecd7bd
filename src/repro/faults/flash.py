"""Flash-layer fault injection: power cuts, torn writes, bit-flips.

Attached to a :class:`~repro.flash.nand.NandFlash` as its
``fault_hook``, the injector sees every page program and read, and
names each fault by the ordinal of the operation it hits.  A *power
cut* interrupts one program: what of it reached the array is part of
the cut's name (:data:`NOTHING`, :data:`TORN` or :data:`WHOLE`), the
device latches dead, and :class:`~repro.errors.PowerLoss` propagates
out of whatever statement was running.  *Read bit-flips* are transient
-- they mangle one attempt and vanish on the NAND's internal retry,
modelling the controller's ECC retry path.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.errors import PowerLoss
from repro.flash.nand import NandFlash

#: what of the interrupted program reached the page: nothing (it stays
#: erased), a strict prefix (the torn write), or every byte -- a
#: program that completed under its intended CRC but was never mapped
NOTHING, TORN, WHOLE = "nothing", "torn", "whole"
LANDINGS = (NOTHING, TORN, WHOLE)


class FlashFaults:
    """Ordinal-named fault schedule over one NAND array.

    ``cut=(k, landing)`` cuts power during the k-th page program seen
    by this injector (0-based), leaving ``landing`` on the page.
    ``flip_reads`` names the read attempts (0-based) that come back
    with one bit flipped.  Counters (``programs``, ``reads``,
    ``flips``) record what was seen and injected.
    """

    def __init__(self, nand: NandFlash,
                 cut: Optional[Tuple[int, str]] = None,
                 flip_reads: Iterable[int] = ()):
        self.nand = nand
        self.cut = cut
        self.flip_reads = frozenset(flip_reads)
        self.programs = 0
        self.reads = 0
        self.flips = 0

    def attach(self) -> "FlashFaults":
        """Install this schedule as the array's fault hook."""
        self.nand.fault_hook = self
        return self

    def detach(self) -> None:
        """Remove the hook (always do this before recovery)."""
        if self.nand.fault_hook is self:
            self.nand.fault_hook = None

    def __call__(self, op: str, ppn: int, data: bytes) -> bytes:
        if op == "program":
            ordinal = self.programs
            self.programs += 1
            if self.cut is not None and ordinal == self.cut[0]:
                landed = {NOTHING: None, TORN: data[:len(data) // 2],
                          WHOLE: data}[self.cut[1]]
                raise PowerLoss(
                    f"power cut during program #{ordinal} of page {ppn}",
                    partial=landed,
                )
            return data
        # read attempt
        ordinal = self.reads
        self.reads += 1
        if ordinal in self.flip_reads and data:
            self.flips += 1
            return bytes([data[0] ^ 1]) + data[1:]
        return data
