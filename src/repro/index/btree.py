"""Bulk-built B+-trees on flash.

Nodes occupy one flash page each.  Leaves are written first and in key
order, so a range scan reads physically consecutive pages; internal
levels are built bottom-up and the root page index is remembered.
Traversal holds at most one RAM buffer per level, matching the paper's
"CI requires at most one buffer per B+-Tree level".

GhostDB is read-mostly on the token ("simple queries and updates are
of little concern"), so the tree is bulk-built at load time and never
modified: appended keys go to the climbing index's delta log.
"""

from __future__ import annotations

import bisect
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.errors import IndexError_
from repro.flash.store import FlashFile, FlashStore
from repro.hardware.ram import SecureRam

_HEADER = 3  # 1 byte node kind + 2 bytes entry count
_LEAF, _INTERNAL = 0, 1
_CHILD_W = 4


class BPlusTree:
    """A fixed-width-key, fixed-width-payload B+-tree on a flash file."""

    def __init__(self, file: FlashFile, key_width: int, payload_width: int,
                 page_size: int, root_page: int, height: int,
                 n_entries: int, n_leaves: int):
        self.file = file
        self.key_width = key_width
        self.payload_width = payload_width
        self.page_size = page_size
        self.root_page = root_page
        self.height = height
        self.n_entries = n_entries
        self.n_leaves = n_leaves
        # parsed-node memo: page -> (raw bytes identity, parsed node).
        # The flash read (and its charge) still happens on every
        # traversal; only the Python slicing of an unchanged page is
        # skipped.  Entries are validated by raw-bytes identity, which
        # the FlashStore page cache preserves for unmodified pages.
        self._node_cache: dict[int, Tuple[bytes, tuple]] = {}

    # ------------------------------------------------------------------
    # capacities
    # ------------------------------------------------------------------
    @staticmethod
    def leaf_capacity(page_size: int, key_width: int, payload_width: int) -> int:
        cap = (page_size - _HEADER) // (key_width + payload_width)
        if cap < 2:
            raise IndexError_("page too small for 2 leaf entries")
        return cap

    @staticmethod
    def internal_capacity(page_size: int, key_width: int) -> int:
        cap = (page_size - _HEADER) // (key_width + _CHILD_W)
        if cap < 2:
            raise IndexError_("page too small for 2 children")
        return cap

    # ------------------------------------------------------------------
    # bulk build
    # ------------------------------------------------------------------
    @classmethod
    def bulk_build(cls, store: FlashStore, name: str,
                   entries: Sequence[Tuple[bytes, bytes]],
                   key_width: int, payload_width: int,
                   page_size: int,
                   ram: Optional[SecureRam] = None) -> "BPlusTree":
        """Build from ``entries`` sorted by key (keys must be unique)."""
        file = store.create(name)
        buf = ram.alloc_buffer(f"btree build {name}") if ram else None
        try:
            leaf_cap = cls.leaf_capacity(page_size, key_width, payload_width)
            int_cap = cls.internal_capacity(page_size, key_width)

            # ---- leaves, written sequentially at pages 0..n_leaves-1
            level: List[Tuple[bytes, int]] = []  # (first key, page idx)
            page_idx = 0
            for start in range(0, len(entries), leaf_cap):
                chunk = entries[start:start + leaf_cap]
                cls._check_sorted(chunk, key_width, payload_width)
                body = bytearray([_LEAF])
                body += len(chunk).to_bytes(2, "little")
                for key, payload in chunk:
                    body += key + payload
                file.append_page(bytes(body))
                level.append((chunk[0][0], page_idx))
                page_idx += 1
            n_leaves = page_idx

            if not level:  # empty tree: a single empty leaf
                file.append_page(bytes([_LEAF]) + (0).to_bytes(2, "little"))
                return cls(file, key_width, payload_width, page_size,
                           root_page=0, height=1, n_entries=0, n_leaves=1)

            # ---- internal levels bottom-up
            height = 1
            while len(level) > 1:
                next_level: List[Tuple[bytes, int]] = []
                for start in range(0, len(level), int_cap):
                    chunk = level[start:start + int_cap]
                    body = bytearray([_INTERNAL])
                    body += len(chunk).to_bytes(2, "little")
                    for key, child in chunk:
                        body += key + child.to_bytes(_CHILD_W, "little")
                    file.append_page(bytes(body))
                    next_level.append((chunk[0][0], page_idx))
                    page_idx += 1
                level = next_level
                height += 1

            return cls(file, key_width, payload_width, page_size,
                       root_page=level[0][1], height=height,
                       n_entries=len(entries), n_leaves=n_leaves)
        finally:
            if buf:
                buf.free()

    @staticmethod
    def _check_sorted(chunk, key_width, payload_width) -> None:
        for key, payload in chunk:
            if len(key) != key_width or len(payload) != payload_width:
                raise IndexError_("entry width mismatch")

    # ------------------------------------------------------------------
    # node parsing
    # ------------------------------------------------------------------
    def _read_node(self, page: int):
        raw = self.file.read_page(page)
        hit = self._node_cache.get(page)
        if hit is not None and hit[0] is raw:
            return hit[1]
        node = self._parse_node(raw)
        if len(self._node_cache) > 1024:
            self._node_cache.clear()
        self._node_cache[page] = (raw, node)
        return node

    def _parse_node(self, raw: bytes):
        kind = raw[0]
        n = int.from_bytes(raw[1:3], "little")
        kw = self.key_width
        if kind == _LEAF:
            stride = kw + self.payload_width
            end = _HEADER + n * stride
            keys = [raw[off:off + kw]
                    for off in range(_HEADER, end, stride)]
            payloads = [raw[off + kw:off + stride]
                        for off in range(_HEADER, end, stride)]
            return _LEAF, keys, payloads
        stride = kw + _CHILD_W
        end = _HEADER + n * stride
        keys = [raw[off:off + kw] for off in range(_HEADER, end, stride)]
        children = [int.from_bytes(raw[off + kw:off + stride], "little")
                    for off in range(_HEADER, end, stride)]
        return _INTERNAL, keys, children

    def _descend_to_leaf(self, key: bytes):
        """Locate the leaf that would contain ``key``.

        Returns ``(page, keys, payloads)`` of the leaf, already parsed,
        so a lookup costs exactly ``height`` page reads.
        """
        page = self.root_page
        while True:
            kind, keys, items = self._read_node(page)
            if kind == _LEAF:
                return page, keys, items
            # rightmost child whose separator <= key (first child if none)
            pos = bisect.bisect_right(keys, key) - 1
            page = items[max(pos, 0)]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _with_path_buffers(self, ram: Optional[SecureRam]):
        if ram is None:
            return None
        return [ram.alloc_buffer("btree level") for _ in range(self.height)]

    @staticmethod
    def _free_buffers(bufs) -> None:
        if bufs:
            for b in bufs:
                b.free()

    def lookup(self, key: bytes, ram: Optional[SecureRam] = None
               ) -> Optional[bytes]:
        """Exact-match lookup; returns the payload or ``None``."""
        bufs = self._with_path_buffers(ram)
        try:
            _, keys, payloads = self._descend_to_leaf(key)
            pos = bisect.bisect_left(keys, key)
            if pos < len(keys) and keys[pos] == key:
                return payloads[pos]
            return None
        finally:
            self._free_buffers(bufs)

    def lookup_many(self, keys: Iterable[bytes],
                    ram: Optional[SecureRam] = None
                    ) -> Iterator[Tuple[bytes, Optional[bytes]]]:
        """One root-to-leaf descent per key (the paper's Pre-Filter cost)."""
        bufs = self._with_path_buffers(ram)
        try:
            for key in keys:
                yield key, self.lookup(key)
        finally:
            self._free_buffers(bufs)

    def range(self, lo: Optional[bytes] = None, hi: Optional[bytes] = None,
              lo_inclusive: bool = True, hi_inclusive: bool = True,
              ram: Optional[SecureRam] = None
              ) -> Iterator[Tuple[bytes, bytes]]:
        """Scan entries with ``lo <= key <= hi`` (bounds optional)."""
        if self.n_entries == 0:
            return
        bufs = self._with_path_buffers(ram)
        try:
            start_leaf = 0 if lo is None else self._descend_to_leaf(lo)[0]
            for page in range(start_leaf, self.n_leaves):
                _, keys, payloads = self._read_node(page)
                for key, payload in zip(keys, payloads):
                    if lo is not None:
                        if key < lo or (key == lo and not lo_inclusive):
                            continue
                    if hi is not None:
                        if key > hi or (key == hi and not hi_inclusive):
                            return
                    yield key, payload
        finally:
            self._free_buffers(bufs)

    def scan_reverse(self, ram: Optional[SecureRam] = None
                     ) -> Iterator[Tuple[bytes, bytes]]:
        """Full scan in descending key order.

        Leaves are laid out sequentially by :meth:`bulk_build`, so the
        reverse scan walks pages ``n_leaves-1 .. 0`` and reverses each
        leaf in the page buffer -- same I/O as a full :meth:`range`.
        """
        if self.n_entries == 0:
            return
        bufs = self._with_path_buffers(ram)
        try:
            for page in range(self.n_leaves - 1, -1, -1):
                _, keys, payloads = self._read_node(page)
                for key, payload in zip(reversed(keys),
                                        reversed(payloads)):
                    yield key, payload
        finally:
            self._free_buffers(bufs)

    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """The image form: the node file and the tree header; the
        parsed-node memo is a host-side cache and is not kept."""
        return {**self.__dict__, "_node_cache": {}}

    def free(self) -> None:
        self.file.free()
