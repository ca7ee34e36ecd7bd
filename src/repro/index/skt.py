"""Subtree Key Tables.

``SKT(T)`` has one row per tuple of ``T`` (stored in ``T.id`` order,
the id itself is implicit) whose columns are the IDs of the matching
tuples in *all descendant* tables of ``T``.  It is a multidimensional
join index: a key semi-join of an ID list against ``SKT(T)`` (the
paper's ``SJoin``) reaches every descendant table in a single
sequential pass.

The columns corresponding to ``T``'s direct children are exactly
``T``'s foreign keys and therefore "come for free" -- the loader does
not also store them in the hidden table image.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import IndexError_
from repro.flash.store import FlashStore
from repro.hardware.ram import SecureRam
from repro.storage.codec import IntType, RowCodec
from repro.storage.heap import HeapFile


class SubtreeKeyTable:
    """A join-precomputing table of descendant IDs, sorted on the owner id."""

    def __init__(self, owner: str, columns: Sequence[str], heap: HeapFile):
        self.owner = owner
        self.columns = list(columns)
        self._col_pos: Dict[str, int] = {
            name: i for i, name in enumerate(self.columns)
        }
        self.heap = heap

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, store: FlashStore, owner: str, columns: Sequence[str],
              rows: Iterable[Sequence[int]], page_size: int,
              ram: SecureRam | None = None) -> "SubtreeKeyTable":
        """Bulk-load descendant-id ``rows`` given in ``owner.id`` order."""
        codec = RowCodec([IntType(4) for _ in columns])
        heap = HeapFile.build(
            store, f"skt_{owner}", codec, rows, page_size, ram
        )
        return cls(owner, columns, heap)

    # ------------------------------------------------------------------
    @property
    def n_pages(self) -> int:
        return self.heap.file.n_pages

    def column_positions(self, tables: Sequence[str]) -> List[int]:
        """Positions of the requested descendant tables' columns."""
        try:
            return [self._col_pos[t] for t in tables]
        except KeyError as exc:
            raise IndexError_(
                f"SKT({self.owner}) has no column for table {exc.args[0]!r}; "
                f"available: {self.columns}"
            ) from None

    def get(self, owner_id: int) -> Tuple[int, ...]:
        """Random access to one row of descendant ids."""
        return self.heap.get_row(owner_id)

    def append_row(self, descendant_ids: Sequence[int]) -> int:
        """Append the descendant ids of a newly inserted owner tuple.

        SKT rows are stored in ``owner.id`` order and ids are dense,
        so an insert is a pure tail append -- O(one page), never a
        rebuild.  Returns the owner id the row now describes.
        """
        if len(descendant_ids) != len(self.columns):
            raise IndexError_(
                f"SKT({self.owner}) rows carry {len(self.columns)} "
                f"descendant ids, got {len(descendant_ids)}"
            )
        return self.heap.append_row(tuple(descendant_ids))
