"""Device constants for the simulated smart USB key.

The defaults reproduce Table 1 of the paper:

====================================================  =========
Parameter                                             Value
====================================================  =========
Size of an ID (bytes)                                 4
Size of a page in Flash (bytes)                       2048
RAM size (bytes)                                      65536
Time to read a page in Flash (us)                     25
Time to write a page in Flash (us)                    200
Time to transfer a byte Data Register <-> RAM (ns)    50
====================================================  =========

Reading a page therefore costs between 25us (load into the data
register only) and 25us + 2048 x 50ns ~= 127us depending on how many
bytes are actually moved into RAM, matching the paper's stated 25-125us
range and read/write ratio of roughly 2.5x to 12x.
"""

from __future__ import annotations

from dataclasses import dataclass

ID_SIZE = 4
"""Size of a tuple identifier in bytes (paper Table 1)."""

PAGE_SIZE = 2048
"""Flash page size in bytes -- also the I/O unit and RAM buffer size."""

RAM_SIZE = 65536
"""Secure RAM budget in bytes (64 KB = 32 buffers of 2 KB)."""

# unit prices ``(us per page or block, ns per byte)``: what the FTL
# charges the ledger with and what the planner's estimates are keyed
# by -- only ``repro.flash.stats`` turns them into time

READ_PRICE = (25.0, 50.0)
"""Page read: register load (us) plus transfer to RAM (ns per byte)."""

WRITE_PRICE = (200.0, 50.0)
"""Page program (us) plus transfer from RAM (ns per byte)."""

ERASE_PRICE = (0.0, 0.0)
"""Block erase: the paper's cost model folds erases into writes."""


@dataclass(frozen=True)
class FlashParams:
    """Geometry and GC threshold of the simulated NAND module (its
    timings are the Table-1 prices above)."""

    page_size: int = PAGE_SIZE
    pages_per_block: int = 64
    n_blocks: int = 4096
    gc_free_block_threshold: int = 4


DEFAULT_PARAMS = FlashParams()
