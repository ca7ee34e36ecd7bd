"""Heap files of fixed-width rows with dense identifiers.

Row ``i`` of a heap lives on page ``i // rows_per_page`` at a fixed
offset, so point access reads one page and transfers only the row's
bytes (the I/O charge reflects that).  Sequential scans transfer whole
pages.  This is the storage format of every hidden table image and of
the Subtree Key Tables.

Scans and page reads decode a whole page per call through the codec's
precompiled struct (:meth:`~repro.storage.codec.RowCodec.unpack_rows`);
bulk loads pack a whole page per call.  The flash I/O pattern -- and
its simulated charges -- are unchanged from the scalar row-at-a-time
loops.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.flash.store import FlashFile, FlashStore
from repro.hardware.ram import SecureRam
from repro.storage.codec import RowCodec


class HeapFile:
    """Fixed-width rows, addressed by dense row id."""

    def __init__(self, file: FlashFile, codec: RowCodec, page_size: int):
        if codec.row_width > page_size:
            raise StorageError("row wider than a flash page")
        self.file = file
        self.codec = codec
        self.page_size = page_size
        self.rows_per_page = page_size // codec.row_width

    @property
    def n_rows(self) -> int:
        """Rows stored: every page but the last is full."""
        n_pages = self.file.n_pages
        return n_pages and ((n_pages - 1) * self.rows_per_page
                            + self.file.tail_fill // self.codec.row_width)

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, store: FlashStore, name: str, codec: RowCodec,
              rows: Iterable[Sequence], page_size: int,
              ram: Optional[SecureRam] = None) -> "HeapFile":
        """Bulk-load ``rows`` (in id order) into a new heap file.

        Holds one page buffer while building; the buffer is accounted in
        secure RAM when ``ram`` is given.  Rows are packed one whole
        page per codec call -- page payloads are byte-identical to the
        scalar row loop's.
        """
        heap = cls(store.create(name), codec, page_size)
        buf = ram.alloc_buffer(f"heap build {name}") if ram else None
        try:
            it = iter(rows)
            per_page = heap.rows_per_page
            while True:
                chunk = list(islice(it, per_page))
                if not chunk:
                    break
                heap.file.append_page(codec.pack_rows(chunk))
        finally:
            if buf:
                buf.free()
        return heap

    # ------------------------------------------------------------------
    # incremental append
    # ------------------------------------------------------------------
    def append_rows(self, rows: Sequence[Sequence]) -> None:
        """Append ``rows`` after the current tail, in id order.

        Cost is O(appended pages) (:meth:`FlashFile.append_records
        <repro.flash.store.FlashFile.append_records>`): the tail page is
        re-programmed once (out-of-place via the FTL, as NAND requires)
        with the rows that fit on it, and each further page is
        programmed once.  Nothing else in the file moves, so DML cost
        scales with the appended bytes, not the table size.
        """
        self.file.append_records([self.codec.pack(row) for row in rows])

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def _locate(self, rid: int) -> Tuple[int, int]:
        if not 0 <= rid < self.n_rows:
            raise StorageError(
                f"row {rid} out of range ({self.n_rows} rows)"
            )
        return rid // self.rows_per_page, (rid % self.rows_per_page) * self.codec.row_width

    def get_row(self, rid: int) -> Tuple:
        """Random access: read one row, transferring only its bytes."""
        page, offset = self._locate(rid)
        raw = self.file.read_page(page, nbytes=self.codec.row_width,
                                  offset=offset)
        return self.codec.unpack(raw)

    def get_columns(self, rid: int, columns: Sequence[int]) -> Tuple:
        """Random access restricted to some column positions."""
        page, offset = self._locate(rid)
        raw = self.file.read_page(page, nbytes=self.codec.row_width,
                                  offset=offset)
        return self.codec.unpack_columns(raw, columns)

    def read_pages_raw(self, pages: Sequence[int]) -> List[bytes]:
        """Read ``pages``' packed rows, raw, as one charged run
        (:meth:`~repro.flash.store.FlashFile.read_pages`: the caller
        consumes every page before it returns control).

        A page stores exactly its rows, so this transfers (and charges)
        the bytes a :meth:`read_rows_on_page` of each page would --
        callers decode selectively (SJoin gathers only qualifying rows).
        """
        return self.file.read_pages(pages)

    def scan(self, columns: Optional[Sequence[int]] = None) -> Iterator[Tuple]:
        """Sequential scan in id order, one page in RAM at a time."""
        rid = 0
        for page_idx in range(self.file.n_pages):
            n_here = min(self.rows_per_page, self.n_rows - rid)
            raw = self.file.read_page(
                page_idx, nbytes=n_here * self.codec.row_width
            )
            if columns is None:
                yield from self.codec.unpack_rows(raw, n_here)
            else:
                yield from self.codec.unpack_rows_columns(raw, n_here,
                                                          columns)
            rid += n_here
            if rid >= self.n_rows:
                break

    def page_of_row(self, rid: int) -> int:
        """Which file page holds row ``rid`` (used by page-skipping scans)."""
        return rid // self.rows_per_page

    def read_rows_on_page(self, page_idx: int,
                          columns: Optional[Sequence[int]] = None
                          ) -> list[Tuple[int, Tuple]]:
        """Read one page and return ``(rid, row)`` pairs it contains."""
        first = page_idx * self.rows_per_page
        n_here = min(self.rows_per_page, self.n_rows - first)
        if n_here <= 0:
            return []
        raw = self.file.read_page(page_idx, nbytes=n_here * self.codec.row_width)
        rows = (self.codec.unpack_rows(raw, n_here) if columns is None
                else self.codec.unpack_rows_columns(raw, n_here, columns))
        return list(enumerate(rows, first))

    def free(self) -> None:
        """Release the underlying flash file."""
        self.file.free()
