"""RAM-resident Bloom filters.

A Bloom filter over a list of IDs is roughly four times smaller than
the list itself (m = 8n bits vs 32-bit IDs), which is what makes
Post-Filtering viable in 64 KB of RAM.  With 4 hash functions the
false-positive rate is ~0.024 at m = 8n and degrades smoothly to
~0.055 at m = 6n when the ID list outgrows the RAM budget (paper
section 3.4).

The bit vector is charged against :class:`~repro.hardware.ram.SecureRam`
for its whole lifetime; hashing uses a deterministic 64-bit mixer so
results are reproducible across runs.

:meth:`BloomFilter.add` and ``in`` are the specification.  The batch
methods hash up to a page of ids per call in the lanes of one wide
Python int (stdlib only) and set and test exactly the same bits; they
cost host time only, never simulated time.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import lru_cache
from itertools import compress
from operator import itemgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import RamExhausted
from repro.hardware.ram import Allocation, SecureRam
from repro.storage.runs import IDS_PER_PAGE

#: paper's default accuracy/space trade-off
DEFAULT_BITS_PER_ITEM = 8
DEFAULT_HASHES = 4

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
#: hash function ``i`` mixes the base mix plus ``i`` times this
_ROUND_STRIDE = 0xA24BAED4963EE407


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: deterministic, well-distributed 64-bit mix."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MUL1) & _MASK64
    x = ((x ^ (x >> 27)) * _MUL2) & _MASK64
    return x ^ (x >> 31)


# ---------------------------------------------------------------------------
# The same mix over up to a page of ids at once.  One Python int holds
# one id per 128-bit lane, value in the low half: the zero high half
# absorbs each 64x64-bit product (and the bits a right shift drags in
# from the lane above), so one add, shift, xor or multiply of the wide
# int is that step of ``_mix64`` on every lane, and the lane mask after
# it is the ``& _MASK64``.  Constants are kept for a full page only; as
# all lanes of a constant are equal, a right shift by whole lanes is
# the constant for a shorter batch.
# ---------------------------------------------------------------------------
_LANE_BITS = 128
_PAGE_ONES = ((1 << _LANE_BITS * IDS_PER_PAGE) - 1) // ((1 << _LANE_BITS) - 1)
_PAGE_MASK = _PAGE_ONES * _MASK64
_PAGE_GOLDEN = _PAGE_ONES * _GOLDEN
_PAGE_INDEXES = tuple(range(IDS_PER_PAGE))
#: byte value -> its eight bits as 0/1 bytes, LSB first
_BYTE_FLAGS = [bytes(b >> i & 1 for i in range(8)) for b in range(256)]
#: below this many ids the lane set-up costs more per id than the
#: scalar methods (measured; docs/ARCHITECTURE.md, "Vectorized execution")
_SCALAR_BELOW = 8


@lru_cache(maxsize=8)
def _round_adds(n_hashes: int) -> Tuple[int, ...]:
    """Per hash round, the page-wide constant that turns a base mix
    into the round's ``_mix64`` input (round offset and golden add
    fused into the one add ``_mix_lanes`` starts with)."""
    return tuple(_PAGE_ONES * ((i * _ROUND_STRIDE + _GOLDEN) & _MASK64)
                 for i in range(n_hashes))


def _pack_lanes(values: array) -> int:
    """An ``array('Q')`` as one wide int, a value per lane."""
    lanes = array("Q", bytes(2 * values.itemsize * len(values)))
    lanes[::2] = values
    if sys.byteorder == "big":
        lanes.byteswap()
    return int.from_bytes(lanes, "little")


def _lane_values(x: int, n: int) -> array:
    """The low halves of the first ``n`` lanes of ``x``."""
    lanes = array("Q", x.to_bytes(_LANE_BITS // 8 * n, "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes[::2]


def _mix_lanes(x: int, add: int, mask: int) -> int:
    """``_mix64`` on every lane, with its first add replaced by ``add``."""
    x = (x + add) & mask
    x = ((x ^ (x >> 30)) & mask) * _MUL1 & mask
    x = ((x ^ (x >> 27)) & mask) * _MUL2 & mask
    return (x ^ (x >> 31)) & mask


def _and_selectors(a: bytes, b: bytes) -> bytes:
    """Element-wise AND of two equally long 0/1 byte strings."""
    return (int.from_bytes(a, "little")
            & int.from_bytes(b, "little")).to_bytes(len(a), "little")


def _trimmed(page_constant: int, n: int) -> int:
    """A full-page lane constant cut down to ``n`` lanes."""
    if n == IDS_PER_PAGE:
        return page_constant
    return page_constant >> _LANE_BITS * (IDS_PER_PAGE - n)


def _base_lanes(items: Sequence[int]) -> int:
    """First mix of at most a page of ids, one per lane."""
    try:
        values = array("Q", items)
    except OverflowError:
        # index keys read as integers can exceed 64 bits
        values = array("Q", [item & _MASK64 for item in items])
    n = len(values)
    return _mix_lanes(_pack_lanes(values), _trimmed(_PAGE_GOLDEN, n),
                      _trimmed(_PAGE_MASK, n))


def false_positive_rate(bits_per_item: float, n_hashes: int) -> float:
    """Theoretical fp rate ``(1 - e^(-k/r))^k`` with ``r`` bits per item."""
    if bits_per_item <= 0:
        return 1.0
    return (1.0 - math.exp(-n_hashes / bits_per_item)) ** n_hashes


class BloomFilter:
    """A RAM-accounted Bloom filter over integer IDs."""

    def __init__(self, ram: Optional[SecureRam], n_items: int,
                 bits_per_item: int = DEFAULT_BITS_PER_ITEM,
                 n_hashes: int = DEFAULT_HASHES,
                 max_bytes: Optional[int] = None,
                 label: str = "bloom filter"):
        """Size for ``n_items``; cap the vector at ``max_bytes`` if given.

        When the ideal ``bits_per_item * n_items`` vector exceeds
        ``max_bytes`` (or free RAM), the ratio m/n degrades smoothly
        rather than failing -- exactly the paper's fallback.

        ``ram=None`` builds an *unaccounted* filter: used for tiny
        persistent summaries owned by flash-resident structures (a
        climbing index's delta-key filter), whose bytes are part of
        that structure's storage budget rather than a query's working
        RAM.  Such filters are long-lived and grown by appending.
        """
        self.n_hashes = n_hashes
        self.n_items = max(1, n_items)
        ideal_bytes = max(1, (bits_per_item * self.n_items + 7) // 8)
        budget = ideal_bytes
        if max_bytes is not None:
            budget = min(budget, max_bytes)
        if ram is not None:
            budget = min(budget, ram.free_bytes)
        if budget <= 0:
            raise RamExhausted("no RAM available for a Bloom filter")
        self.m_bits = budget * 8
        self._alloc: Optional[Allocation] = (
            ram.alloc(budget, label) if ram is not None else None
        )
        self._bits = bytearray(budget)
        #: ``_bits`` as one 0/1 byte per bit for the batch probe; built
        #: on demand, dropped by every add
        self._flags: Optional[bytes] = None
        self.count_added = 0

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return len(self._bits)

    @property
    def bits_per_item(self) -> float:
        """Achieved m/n ratio (8 ideally, lower when RAM-capped)."""
        return self.m_bits / self.n_items

    @property
    def expected_fp_rate(self) -> float:
        """Theoretical false-positive rate at the achieved m/n ratio."""
        return false_positive_rate(self.bits_per_item, self.n_hashes)

    # ------------------------------------------------------------------
    def _positions(self, item: int):
        base = _mix64(item)
        for i in range(self.n_hashes):
            yield _mix64(base + i * _ROUND_STRIDE) % self.m_bits

    def add(self, item: int) -> None:
        """Insert one ID."""
        for pos in self._positions(item):
            self._bits[pos >> 3] |= 1 << (pos & 7)
        self._flags = None
        self.count_added += 1

    def add_all(self, items: Iterable[int]) -> None:
        """Insert an ID stream: materialised, then hashed in bulk."""
        self.add_many(list(items))

    def add_many(self, items: Sequence[int]) -> None:
        """Insert a batch of IDs; sets exactly the bits a scalar
        :meth:`add` loop would."""
        bits = self._bits
        for start in range(0, len(items), IDS_PER_PAGE):
            page = items[start:start + IDS_PER_PAGE]
            if len(page) < _SCALAR_BELOW:
                for item in page:
                    self.add(item)
                continue
            base = _base_lanes(page)
            for add in _round_adds(self.n_hashes):
                for pos in self._positions_many(base, len(page), add):
                    bits[pos >> 3] |= 1 << (pos & 7)
            self.count_added += len(page)
        self._flags = None

    def __contains__(self, item: int) -> bool:
        return all(
            self._bits[pos >> 3] & (1 << (pos & 7))
            for pos in self._positions(item)
        )

    def contains_many(self, items: Sequence[int]) -> bytes:
        """Batch membership: one 0/1 byte per item (a ready
        :func:`itertools.compress` selector), scalar-identical."""
        return b"".join(
            self._probe_page(items[start:start + IDS_PER_PAGE])
            for start in range(0, len(items), IDS_PER_PAGE))

    def _probe_page(self, items: Sequence[int]) -> bytes:
        """Probe at most one page of IDs with the scalar early exit:
        ids a round rejects leave the lanes as soon as the lane-rounds
        that saves outnumber the lanes a re-pack hashes again."""
        if len(items) < _SCALAR_BELOW:
            return bytes(map(self.__contains__, items))
        flags = self._flags
        if flags is None:
            # one byte per filter bit, so a round's probes are a single
            # C-level gather; any add drops it
            flags = self._flags = b"".join(
                map(_BYTE_FLAGS.__getitem__, self._bits))
        # lane ``i`` holds the first mix of ``ids[i] == items[lanes[i]]``
        lanes: Sequence[int] = _PAGE_INDEXES[:len(items)]
        ids = items
        base = _base_lanes(ids)
        # which lanes passed every round since the last re-pack
        passed = None
        rounds_left = self.n_hashes
        for add in _round_adds(self.n_hashes):
            rounds_left -= 1
            keep = bytes(itemgetter(
                *self._positions_many(base, len(ids), add))(flags))
            if passed is not None:
                keep = _and_selectors(passed, keep)
            hits = keep.count(1)
            if (len(keep) - hits) * rounds_left <= hits:
                passed = keep
                continue
            lanes = list(compress(lanes, keep))
            ids = list(compress(ids, keep))
            passed = None
            if hits < _SCALAR_BELOW:
                lanes = [i for i in lanes if items[i] in self]
                break
            base = _base_lanes(ids)
        out = bytearray(len(items))
        for i in lanes if passed is None else compress(lanes, passed):
            out[i] = 1
        return bytes(out)

    def _positions_many(self, base: int, n: int, add: int) -> List[int]:
        """The batch position kernel: one hash round's bit positions
        for the ``n`` ids whose first mix sits in the lanes of ``base``
        (``add`` is that round's entry of :func:`_round_adds`)."""
        m = self.m_bits
        mixed = _mix_lanes(base, _trimmed(add, n), _trimmed(_PAGE_MASK, n))
        return [y % m for y in _lane_values(mixed, n)]

    def free(self) -> None:
        """Release the bit vector's RAM (no-op for unaccounted filters)."""
        if self._alloc is not None:
            self._alloc.free()

    def __enter__(self) -> "BloomFilter":
        return self

    def __exit__(self, *exc) -> None:
        self.free()
