"""Packed 32-bit ID sequences on flash, and sorted-run views over them.

Lists of tuple identifiers are the currency of GhostDB query
processing: climbing-index entries, Vis results, Merge inputs/outputs
and the columns of the QEPSJ result are all sequences of 4-byte IDs.
They are packed 512 per 2 KB page.  A :class:`U32View` is a slice of
such a file (``start`` ids in, ``count`` ids long) -- climbing-index
sublists are views into one shared, value-ordered run file, so range
predicates scan contiguous pages.

Reading a view holds exactly **one** RAM buffer; writing holds one as
well.  That is what makes the Merge operator's "one buffer per open
(sub)list plus one output buffer" accounting real rather than
aspirational.

Ids move **a page at a time**: :meth:`U32View.iter_pages` /
:meth:`U32View.read_page_words` decode a whole page of u32 words per
call (zero-copy ``memoryview.cast("I")`` on little-endian hosts) and
:meth:`U32FileBuilder.append_words` packs a whole batch per call.  The
contract every reader and writer here keeps, because the simulated
costs are defined by it: a page is read when the id stream first
crosses it and never again, only the view's own bytes on that page are
transferred (and charged), a full page is written the moment it fills,
and the single page buffer is held from the first access until the
iterator is exhausted or closed.

The sorted-run set primitives are the in-RAM combinators of the
execution core: :func:`union_sorted` merges union rounds
(``core/merge.py``), :func:`difference_sorted` drops tombstoned ids
from anchor chunks (``core/executor.py``), :func:`intersect_sorted`
matches fk-delta candidates against base sublists
(``index/climbing.py``), and :func:`galloping_search` drives the
intersection cursor's in-page skips.
"""

from __future__ import annotations

import heapq
import sys
from array import array
from bisect import bisect_left
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.errors import StorageError
from repro.flash.constants import ID_SIZE, PAGE_SIZE
from repro.flash.store import FlashFile, FlashStore
from repro.hardware.ram import SecureRam

#: ids per default-size page; memory-resident runs chunk at this size
IDS_PER_PAGE = PAGE_SIZE // ID_SIZE

#: fast zero-copy decode needs a 4-byte native unsigned int, little end
_FAST_WORDS = sys.byteorder == "little" and array("I").itemsize == ID_SIZE


def word_view(raw: bytes) -> Sequence[int]:
    """Packed little-endian u32 words as an indexable, sliceable
    sequence: a zero-copy ``memoryview`` on little-endian hosts (one C
    call, nothing decoded until it is indexed), a decoded list
    elsewhere."""
    if len(raw) % ID_SIZE:
        raise StorageError(
            f"{len(raw)} bytes are not a whole number of u32 words"
        )
    if _FAST_WORDS:
        return memoryview(raw).cast("I")
    return [int.from_bytes(raw[i:i + ID_SIZE], "little")
            for i in range(0, len(raw), ID_SIZE)]


def decode_words(raw: bytes) -> List[int]:
    """Decode packed little-endian u32 words into a list of ints.

    Equals ``[int.from_bytes(raw[i:i+4], "little") ...]`` but one C
    call on little-endian hosts.
    """
    return list(word_view(raw))


def encode_words(values: Sequence[int]) -> bytes:
    """Pack ints into little-endian u32 bytes (inverse of decode)."""
    if _FAST_WORDS:
        return array("I", values).tobytes()
    return b"".join(int(v).to_bytes(ID_SIZE, "little") for v in values)


# ---------------------------------------------------------------------------
# sorted-run set operations (RAM-resident batch primitives)
# ---------------------------------------------------------------------------

def galloping_search(values: Sequence[int], target: int,
                     lo: int = 0) -> int:
    """Position of the first ``values[i] >= target`` at or after ``lo``.

    Gallops (doubling steps) from ``lo`` before binary-searching the
    bracketed range -- O(log d) for a match d positions ahead, the
    right shape for skewed merge/intersection advances.
    """
    n = len(values)
    if lo >= n or values[lo] >= target:
        return lo
    step = 1
    prev = lo
    pos = lo + 1
    while pos < n and values[pos] < target:
        prev = pos
        step <<= 1
        pos = lo + step
    return bisect_left(values, target, prev + 1, min(pos + 1, n))


def intersect_sorted(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Sorted, deduplicated intersection of two sorted runs."""
    if not a or not b:
        return []
    return sorted(set(a).intersection(b))


def union_sorted(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Sorted, deduplicated union of two sorted runs."""
    if not a:
        return sorted(set(b))
    if not b:
        return sorted(set(a))
    return sorted(set(a).union(b))


def difference_sorted(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Sorted, deduplicated ``a - b`` of two sorted runs."""
    if not a:
        return []
    if not b:
        return sorted(set(a))
    return sorted(set(a).difference(b))


def union_sorted_many(runs: Sequence[Sequence[int]]) -> List[int]:
    """Sorted, deduplicated k-way union of sorted runs.

    A true streaming heap merge (``heapq.merge``), not repeated
    two-way unions: the scatter-gather executor funnels one sorted
    anchor-id stream per shard through here, so the merge must be a
    single pass over ``sum(len(run))`` ids regardless of shard count.
    """
    out: List[int] = []
    last = None
    for value in heapq.merge(*runs):
        if value != last:
            out.append(value)
            last = value
    return out


def intersect_sorted_many(runs: Sequence[Sequence[int]]) -> List[int]:
    """Sorted, deduplicated k-way intersection of sorted runs."""
    if not runs:
        return []
    acc = sorted(set(runs[0]))
    for run in runs[1:]:
        if not acc:
            break
        acc = intersect_sorted(acc, run)
    return acc


def difference_sorted_many(first: Sequence[int],
                           rest: Sequence[Sequence[int]]) -> List[int]:
    """Sorted, deduplicated ``first - union(rest)`` of sorted runs."""
    return difference_sorted(first, union_sorted_many(rest))


def dedupe_sorted(values: List[int], last: Optional[int] = None
                  ) -> List[int]:
    """Drop repeats from a sorted chunk (and a leading ``== last``)."""
    out = list(dict.fromkeys(values))
    if last is not None and out and out[0] == last:
        del out[0]
    return out


class U32FileBuilder:
    """Append-only builder of a packed u32 file; hands out views.

    Holds a single page buffer for the whole build (accounted in secure
    RAM when ``ram`` is provided).
    """

    def __init__(self, store: FlashStore, ram: Optional[SecureRam] = None,
                 name: Optional[str] = None, label: str = "u32 build"):
        self.file = store.create(name) if name else store.create_temp()
        self.page_size = store.ftl.params.page_size
        self._buf_alloc = ram.alloc_buffer(label) if ram else None
        self._buffer = bytearray()
        self.count = 0
        self._finished = False

    def append_words(self, values: Sequence[int]) -> None:
        """Append a batch of unsigned 32-bit values in one encode call.

        Every page the batch fills is written at once; the tail stays
        buffered until more values arrive or :meth:`finish` flushes it,
        so the pages written depend on the values only, never on how
        they were batched.
        """
        if not values:
            return
        self._buffer += encode_words(values)
        self.count += len(values)
        page_size = self.page_size
        while len(self._buffer) >= page_size:
            self.file.append_page(bytes(self._buffer[:page_size]))
            del self._buffer[:page_size]

    def extend(self, values: Iterable[int]) -> None:
        """Append every value of ``values`` in order."""
        self.append_words(list(values))

    def mark(self) -> int:
        """Current position (in ids); use to delimit views."""
        return self.count

    def view(self, start: int, count: int) -> "U32View":
        """A view over ``[start, start+count)`` of the finished file."""
        return U32View(self.file, start, count)

    def finish(self) -> "U32View":
        """Flush the tail page, free the buffer, return the full view."""
        if not self._finished:
            if self._buffer:
                self.file.append_page(bytes(self._buffer))
                self._buffer.clear()
            if self._buf_alloc:
                self._buf_alloc.free()
            self._finished = True
        return U32View(self.file, 0, self.count)


class U32View:
    """A slice of a packed u32 flash file: ``count`` ids from ``start``."""

    __slots__ = ("file", "start", "count")

    def __init__(self, file: FlashFile, start: int, count: int):
        self.file = file
        self.start = start
        self.count = count

    def iter_pages(self, ram: Optional[SecureRam] = None,
                   label: str = "run read") -> Iterator[List[int]]:
        """Yield the view's ids one decoded page-chunk at a time.

        Each touched page is read once, when the consumer asks for it;
        only the view's bytes on it are transferred to RAM (and
        charged); one RAM buffer is held from the first page until the
        iterator is exhausted or closed.
        """
        if self.count == 0:
            return
        buf = ram.alloc_buffer(label) if ram else None
        try:
            for chunk_index in range(self.n_page_chunks):
                yield self.read_page_words(chunk_index)
        finally:
            if buf:
                buf.free()

    @property
    def n_page_chunks(self) -> int:
        """How many page-chunks the view spans (see :meth:`iter_pages`)."""
        if self.count == 0:
            return 0
        page_size = self.file.page_size
        first = self.start * ID_SIZE // page_size
        last = (self.start + self.count - 1) * ID_SIZE // page_size
        return last - first + 1

    def read_page_words(self, chunk_index: int) -> List[int]:
        """Decode the ``chunk_index``-th page-chunk of the view.

        Chunks are delimited exactly as :meth:`iter_pages` yields them
        (it is built on this method); the read transfers (and charges)
        only the view's bytes on that page.
        """
        page_size = self.file.page_size
        per_page = page_size // ID_SIZE
        first_page = self.start * ID_SIZE // page_size
        page_idx = first_page + chunk_index
        lo = max(self.start, page_idx * per_page)
        hi = min(self.start + self.count, (page_idx + 1) * per_page)
        if hi <= lo:
            raise StorageError(
                f"chunk {chunk_index} out of range for u32 view of "
                f"{self.file.name!r}"
            )
        raw = self.file.read_page(
            page_idx, nbytes=(hi - lo) * ID_SIZE,
            offset=(lo - page_idx * per_page) * ID_SIZE,
        )
        if len(raw) != (hi - lo) * ID_SIZE:
            raise StorageError(
                f"short read in u32 view of {self.file.name!r}"
            )
        return decode_words(raw)

    def iterate(self, ram: Optional[SecureRam] = None,
                label: str = "run read") -> Iterator[int]:
        """Yield the ids one by one (:meth:`iter_pages`, flattened)."""
        pages = self.iter_pages(ram, label)
        try:
            for page in pages:
                yield from page
        finally:
            # closing this iterator must release the page buffer *now*
            pages.close()

    def _read_at(self, index: int) -> int:
        """Point-read one id of the view (4 bytes moved, charged)."""
        page_size = self.file.page_size
        per_page = page_size // ID_SIZE
        pos = self.start + index
        page_idx = pos // per_page
        offset = (pos - page_idx * per_page) * ID_SIZE
        raw = self.file.read_page(page_idx, nbytes=ID_SIZE, offset=offset)
        return int.from_bytes(raw, "little")

    def contains(self, value: int) -> bool:
        """Membership by binary search over the sorted view.

        O(log n) point reads of 4 bytes each -- far cheaper than a
        full scan when probing a few candidates (the fk-delta climb of
        :meth:`~repro.index.climbing.ClimbingIndex.lookup_all`).
        """
        lo, hi = 0, self.count - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            got = self._read_at(mid)
            if got == value:
                return True
            if got < value:
                lo = mid + 1
            else:
                hi = mid - 1
        return False


def write_u32s(store: FlashStore, values: Iterable[int],
               ram: Optional[SecureRam] = None) -> U32View:
    """Write a fresh packed u32 temp file holding ``values``."""
    builder = U32FileBuilder(store, ram, label="u32 write")
    builder.extend(values)
    return builder.finish()


class IdRun:
    """A sorted run of ids: either flash-resident or RAM-resident.

    ``IdRun`` is the Merge operator's input unit.  ``buffers_needed``
    tells the planner how many page buffers an open cursor costs
    (1 for flash views, 0 for RAM lists whose bytes are accounted by
    their owner).
    """

    __slots__ = ("view", "ids")

    def __init__(self, view: Optional[U32View] = None,
                 ids: Optional[List[int]] = None):
        if (view is None) == (ids is None):
            raise StorageError("IdRun needs exactly one of view/ids")
        self.view = view
        self.ids = ids

    # ------------------------------------------------------------------
    @classmethod
    def memory(cls, ids: List[int]) -> "IdRun":
        """A RAM-resident run (its bytes are accounted by the owner)."""
        return cls(ids=ids)

    @classmethod
    def flash(cls, view: U32View) -> "IdRun":
        """A flash-resident run backed by a :class:`U32View`."""
        return cls(view=view)

    @property
    def count(self) -> int:
        """Number of ids in the run."""
        return len(self.ids) if self.ids is not None else self.view.count

    @property
    def buffers_needed(self) -> int:
        """Page buffers an open cursor costs (empty runs read nothing)."""
        if self.ids is not None or self.view.count == 0:
            return 0
        return 1

    @property
    def ram_bytes(self) -> int:
        """Bytes of secure RAM this run occupies while *stored* (not read)."""
        return len(self.ids) * ID_SIZE if self.ids is not None else 0

    def iter_pages(self, ram: Optional[SecureRam] = None,
                   label: str = "run read") -> Iterator[List[int]]:
        """Yield the ids in page-sized chunks (see
        :meth:`U32View.iter_pages`); RAM-resident runs slice their list
        without any I/O or extra accounting."""
        if self.ids is not None:
            return (self.ids[i:i + IDS_PER_PAGE]
                    for i in range(0, len(self.ids), IDS_PER_PAGE))
        return self.view.iter_pages(ram, label)
