"""Secure RAM manager.

Security dictates a tiny RAM on the secure chip (the smaller the die,
the harder it is to snoop), so every GhostDB operator must account for
the RAM it holds.  :class:`SecureRam` is a strict budget: allocations
beyond the configured capacity raise :class:`~repro.errors.RamExhausted`
instead of silently spilling, which is how the test suite proves that
plans honour the paper's 64 KB budget.

The natural allocation unit is one *buffer* of one flash page (2 KB);
the default budget is 32 such buffers.

:class:`QueryWindow` (via :meth:`SecureRam.query_window`) attributes
allocations to the statement that made them: the RAM keeps its open
windows in a stack on itself, and every allocation charges each of
them.  A token runs one statement at a time, so the windows open on it
are that statement's phases and the statements nested in it (a DML
statement running a predicate QEPSJ, say).  Every peak the engine
reports is a window's.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List

from repro.errors import RamExhausted
from repro.flash.constants import PAGE_SIZE, RAM_SIZE


class QueryWindow:
    """Per-query RAM attribution: bytes held and peak held.

    ``held`` counts the bytes allocated while this window was open that
    are still live; ``peak`` is its high-water mark.  Nested windows
    each see the allocation.  The window also remembers the allocations
    themselves, so a statement that raises mid-pipeline can hand back
    what its abandoned operators still hold (:meth:`free_all`).
    """

    __slots__ = ("held", "peak", "allocations")

    def __init__(self) -> None:
        self.held = 0
        self.peak = 0
        self.allocations: "list[Allocation]" = []

    def free_all(self) -> None:
        """Free every still-live allocation made through this window."""
        for allocation in self.allocations:
            allocation.free()

    def _charge(self, nbytes: int) -> None:
        self.held += nbytes
        if self.held > self.peak:
            self.peak = self.held

    def _uncharge(self, nbytes: int) -> None:
        self.held = max(0, self.held - nbytes)


class Allocation:
    """A live slice of secure RAM.  Free it with :meth:`free`."""

    __slots__ = ("ram", "nbytes", "label", "freed")

    def __init__(self, ram: "SecureRam", nbytes: int, label: str):
        self.ram = ram
        self.nbytes = nbytes
        self.label = label
        self.freed = False

    def free(self) -> None:
        """Return the bytes to the pool (idempotent)."""
        if not self.freed:
            self.freed = True
            self.ram._release(self.nbytes)
            self.ram._live.discard(self)


class SecureRam:
    """Byte-accurate allocator over the token's RAM budget."""

    def __init__(self, capacity: int = RAM_SIZE, page_size: int = PAGE_SIZE):
        if capacity <= 0:
            raise ValueError("RAM capacity must be positive")
        self.capacity = capacity
        self.page_size = page_size
        self.used = 0
        #: registry of outstanding allocations so a power cycle can
        #: reclaim buffers stranded by a mid-statement crash (strong
        #: references: a stranded buffer must stay reclaimable even
        #: after its owning operator is garbage-collected)
        self._live: "set[Allocation]" = set()
        #: open :class:`QueryWindow` objects, outermost first
        self._windows: List[QueryWindow] = []

    # ------------------------------------------------------------------
    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used

    @property
    def n_buffers(self) -> int:
        """Total page-sized buffers the budget can hold (32 by default)."""
        return self.capacity // self.page_size

    @property
    def free_buffers(self) -> int:
        """Whole page-sized buffers currently available."""
        return self.free_bytes // self.page_size

    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, label: str = "") -> Allocation:
        """Claim ``nbytes``; raises :class:`RamExhausted` when over budget."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self.used + nbytes > self.capacity:
            raise RamExhausted(
                f"cannot allocate {nbytes} bytes for {label or 'operator'}: "
                f"{self.free_bytes} of {self.capacity} bytes free"
            )
        self.used += nbytes
        allocation = Allocation(self, nbytes, label)
        self._live.add(allocation)
        for window in self._windows:
            window._charge(nbytes)
            window.allocations.append(allocation)
        return allocation

    def alloc_buffer(self, label: str = "") -> Allocation:
        """Claim one page-sized I/O buffer."""
        return self.alloc(self.page_size, label)

    @contextmanager
    def reserve(self, nbytes: int, label: str = "") -> Iterator[Allocation]:
        """``with ram.reserve(4096, "merge output"):`` style allocation."""
        allocation = self.alloc(nbytes, label)
        try:
            yield allocation
        finally:
            allocation.free()

    # ------------------------------------------------------------------
    def _release(self, nbytes: int) -> None:
        self.used -= nbytes
        for window in self._windows:
            window._uncharge(nbytes)

    # ------------------------------------------------------------------
    @contextmanager
    def query_window(self) -> Iterator[QueryWindow]:
        """Attribute the enclosed allocations to one query.

        ``with ram.query_window() as win:`` opens a per-query
        attribution window; ``win.peak`` after (or during) the block is
        the peak of the allocations made inside it, whatever was
        already held when it opened.  Windows nest: an inner
        statement's allocations charge every enclosing window too.  A
        closed window is charged nothing more.
        """
        window = QueryWindow()
        self._windows.append(window)
        try:
            yield window
        finally:
            self._windows.remove(window)

    def power_cycle(self) -> int:
        """Reboot semantics: volatile RAM does not survive power loss.

        An operator interrupted by a crash never reaches its own
        ``free()`` calls, but on the real device the buffers are gone
        the instant power drops.  Frees every outstanding allocation
        and returns the number of bytes reclaimed.
        """
        reclaimed = 0
        for allocation in list(self._live):
            if not allocation.freed:
                reclaimed += allocation.nbytes
                allocation.free()
        return reclaimed

    def assert_all_freed(self) -> None:
        """Test hook: verify no operator leaked RAM."""
        if self.used != 0:
            raise RamExhausted(
                f"{self.used} bytes of secure RAM still allocated"
            )
