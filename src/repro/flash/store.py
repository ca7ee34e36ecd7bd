"""Named page files over the FTL.

Everything the Secure token persists -- hidden table images, SKTs,
B+-tree nodes, climbing-index ID runs, temporary merge runs -- is a
:class:`FlashFile`: an ordered sequence of logical flash pages that can
be appended to, rewritten page-wise, and freed.  :class:`FlashStore`
is the directory of those files.

Reads go through a small read-through :class:`PageCache` keyed on the
logical page number.  The cache is a *host-Python* optimization only:
a hit skips the FTL mapping and NAND array lookup, but the simulated
read is charged exactly as if the page had been fetched from flash
(same time, same ``pages_read``/``bytes_to_ram`` counters) -- cached
bytes never live in accounted secure RAM and never save simulated I/O.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import BadAddressError, StorageError
from repro.flash.ftl import Ftl

#: page-cache capacity, in pages
PAGE_CACHE_CAPACITY = 512


class PageCache:
    """LRU cache of full logical-page payloads, with hit/miss counters.

    Coherence is per logical page and targeted: ``write_page`` refreshes
    the entry in place and ``free`` invalidates exactly the freed pages.
    Compaction rewrites (shadow file built, old image freed) therefore
    never require a wholesale ``clear()`` -- entries for untouched files
    keep hitting while the swapped table's old pages drop out.
    """

    __slots__ = ("capacity", "hits", "misses", "_pages")

    def __init__(self):
        self.capacity = PAGE_CACHE_CAPACITY
        self.hits = 0
        self.misses = 0
        self._pages: "OrderedDict[int, bytes]" = OrderedDict()

    def get(self, lpn: int) -> Optional[bytes]:
        """The cached payload of ``lpn``, refreshing its LRU slot."""
        data = self._pages.get(lpn)
        if data is None:
            self.misses += 1
            return None
        self._pages.move_to_end(lpn)
        self.hits += 1
        return data

    def put(self, lpn: int, data: bytes) -> None:
        """Insert/refresh ``lpn``; evicts the LRU page beyond capacity."""
        pages = self._pages
        pages[lpn] = data
        pages.move_to_end(lpn)
        while len(pages) > self.capacity:
            pages.popitem(last=False)

    def invalidate(self, lpn: int) -> None:
        """Drop ``lpn`` (its logical page was freed or rewritten)."""
        self._pages.pop(lpn, None)

    def clear(self) -> None:
        self._pages.clear()

    def __len__(self) -> int:
        return len(self._pages)


class FlashFile:
    """An ordered sequence of logical flash pages."""

    def __init__(self, store: "FlashStore", name: str,
                 lpns: List[int], page_fill: List[int]):
        self._store = store
        self.name = name
        self._lpns = lpns
        self._page_fill = page_fill  # bytes stored per page
        self.closed = False

    # ------------------------------------------------------------------
    @property
    def page_size(self) -> int:
        """Bytes per page of the flash device holding the file."""
        return self._store.ftl.params.page_size

    @property
    def n_pages(self) -> int:
        """Number of pages currently in the file."""
        return len(self._lpns)

    @property
    def n_bytes(self) -> int:
        """Total payload bytes stored in the file."""
        return sum(self._page_fill)

    def _check_open(self) -> None:
        if self.closed:
            raise StorageError(f"flash file {self.name!r} already freed")

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self._lpns):
            raise BadAddressError(
                f"page {index} out of range for file {self.name!r} "
                f"({len(self._lpns)} pages)"
            )

    # ------------------------------------------------------------------
    def append_page(self, data: bytes) -> int:
        """Append one page of payload; returns its index in the file."""
        self._check_open()
        (lpn,) = self._store.ftl.allocate(1)
        data = bytes(data)
        self._store.ftl.write(lpn, data)
        self._store.page_cache.put(lpn, data)
        self._lpns.append(lpn)
        self._page_fill.append(len(data))
        journal = self._store.journal
        if journal is not None:
            journal.note_append(self)
        return len(self._lpns) - 1

    def write_page(self, index: int, data: bytes) -> None:
        """Rewrite page ``index`` (out of place, via the FTL)."""
        self._check_open()
        self._check_index(index)
        data = bytes(data)
        journal = self._store.journal
        old = self._store.ftl.peek(self._lpns[index]) if journal is not None else None
        self._store.ftl.write(self._lpns[index], data)
        self._store.page_cache.put(self._lpns[index], data)
        self._page_fill[index] = len(data)
        if journal is not None:
            journal.note_rewrite(self, index, old)

    def truncate_last(self) -> None:
        """Drop the file's last page (statement-journal rollback path)."""
        self._check_open()
        if not self._lpns:
            raise BadAddressError(
                f"truncate_last on empty flash file {self.name!r}"
            )
        lpn = self._lpns.pop()
        self._page_fill.pop()
        self._store.ftl.trim(lpn)
        self._store.page_cache.invalidate(lpn)

    def read_page(self, index: int, nbytes: Optional[int] = None,
                  offset: int = 0) -> bytes:
        """Read page ``index``; move only ``nbytes`` from ``offset`` into RAM.

        Served through the store's :class:`PageCache`: the payload
        bytes may come from the cache, but the simulated transfer is
        always charged (:meth:`Ftl.charge_read`) for the same ``nbytes``
        from ``offset`` (the cache saves host-Python work, never
        simulated I/O).
        """
        self._check_open()
        self._check_index(index)
        fill = self._page_fill[index]
        if offset < 0 or (offset > 0 and offset >= fill):
            raise BadAddressError(
                f"read offset {offset} out of range for page {index} of "
                f"file {self.name!r} ({fill} bytes filled)"
            )
        if nbytes is not None and (nbytes < 0 or offset + nbytes > fill):
            raise BadAddressError(
                f"read of {nbytes} bytes at offset {offset} overruns "
                f"page {index} of file {self.name!r} ({fill} bytes filled)"
            )
        data = self._payload(index)
        if offset:
            data = data[offset:]
        if nbytes is not None:
            data = data[:nbytes]
        self._store.ftl.charge_read(1, len(data))
        return data

    def _payload(self, index: int) -> bytes:
        """Page ``index``'s full stored payload, read through the page
        cache (probe, else verified NAND read and fill); uncharged --
        the caller files the transfer."""
        lpn = self._lpns[index]
        cache = self._store.page_cache
        full = cache.get(lpn)
        if full is None:
            full = self._store.ftl.peek(lpn)
            cache.put(lpn, full)
        return full

    def read_pages(self, indices: Sequence[int]) -> List[bytes]:
        """``[self.read_page(i) for i in indices]`` -- the same checks,
        cache probes and verified reads, page by page in that order --
        filed as **one** read charge for the run.  A run that dies at
        page *k* has charged the *k* pages before it, as *k* single
        reads would have.

        Legal only where every page of the run is consumed before
        control leaves the reader (an SJoin chunk).  A reader its
        consumer drives -- a Merge cursor, ``U32View.iter_pages``,
        ``HeapFile.scan``, a sort-run re-read -- reads page by page: a
        consumer that stops early is never charged for a page it did
        not ask for.
        """
        out: List[bytes] = []
        try:
            for index in indices:
                self._check_open()
                self._check_index(index)
                out.append(self._payload(index))
        finally:
            if out:
                self._store.ftl.charge_read(len(out), sum(map(len, out)))
        return out

    def free(self) -> None:
        """Release every page of the file back to the FTL."""
        if self.closed:
            return
        cache = self._store.page_cache
        for lpn in self._lpns:
            self._store.ftl.trim(lpn)
            cache.invalidate(lpn)
        self._lpns.clear()
        self._page_fill.clear()
        self.closed = True
        self._store.forget(self.name)


class FlashStore:
    """Directory of :class:`FlashFile` objects over one FTL instance."""

    def __init__(self, ftl: Ftl):
        self.ftl = ftl
        self.page_cache = PageCache()
        self._files: Dict[str, FlashFile] = {}
        self._next_temp = 0
        # armed StatementJournal (repro.core.recovery) during a DML
        # statement; None otherwise -- files notify it after every
        # successful mutation so a crashed statement can be rolled back
        self.journal = None

    def create(self, name: str) -> FlashFile:
        """Create a new, empty file called ``name``."""
        if name in self._files:
            raise StorageError(f"flash file {name!r} already exists")
        f = FlashFile(self, name, [], [])
        self._files[name] = f
        if self.journal is not None:
            self.journal.note_create(f)
        return f

    def get(self, name: str) -> FlashFile:
        """Look up an existing file."""
        try:
            return self._files[name]
        except KeyError:
            raise StorageError(f"no flash file named {name!r}") from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def create_temp(self) -> FlashFile:
        """Create a uniquely named temporary file (caller frees it)."""
        name = f"__temp_{self._next_temp}"
        self._next_temp += 1
        return self.create(name)

    def temp_mark(self) -> int:
        """Where :meth:`free_temps_since` starts: after every
        temporary created so far."""
        return self._next_temp

    def free_temps_since(self, mark: int) -> None:
        """Free every still-live temporary created since ``mark`` (what
        a statement that raised mid-pipeline left behind; ``0`` for all
        of them).  Walks the live files, not every number handed out."""
        for name, f in list(self._files.items()):
            if name.startswith("__temp_") and int(name[7:]) >= mark:
                f.free()

    def free_tagged(self, tag: str) -> None:
        """Free every file whose name carries ``tag`` (not followed by
        a digit: ``~c1`` is not ``~c10``)."""
        for name, f in list(self._files.items()):
            if re.search(re.escape(tag) + r"(?!\d)", name):
                f.free()

    def forget(self, name: str) -> None:
        """Drop ``name`` from the directory (its file freed itself)."""
        self._files.pop(name, None)

    def __getstate__(self) -> Dict[str, Any]:
        """The image form: the file directory (creation order) and the
        temp-name counter.  The page cache is host-side only and the
        armed journal belongs to a statement; neither is kept."""
        return {**self.__dict__, "page_cache": PageCache(), "journal": None}

    # ------------------------------------------------------------------
    @property
    def n_files(self) -> int:
        return len(self._files)

    def cache_stats(self) -> Dict[str, int]:
        """Page-cache hit/miss/size counters (host-perf diagnostics)."""
        return {
            "hits": self.page_cache.hits,
            "misses": self.page_cache.misses,
            "cached_pages": len(self.page_cache),
            "capacity": self.page_cache.capacity,
        }

    def pages_used(self) -> int:
        """Pages held by all live files."""
        return sum(f.n_pages for f in self._files.values())

    def bytes_used(self) -> int:
        """Payload bytes held by all live files."""
        return sum(f.n_bytes for f in self._files.values())
