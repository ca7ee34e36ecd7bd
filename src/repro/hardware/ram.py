"""Secure RAM manager.

Security dictates a tiny RAM on the secure chip (the smaller the die,
the harder it is to snoop), so every GhostDB operator must account for
the RAM it holds.  :class:`SecureRam` is a strict budget: allocations
beyond the configured capacity raise :class:`~repro.errors.RamExhausted`
instead of silently spilling, which is how the test suite proves that
plans honour the paper's 64 KB budget.

The natural allocation unit is one *buffer* of one flash page (2 KB);
the default budget is 32 such buffers.

Two bookkeeping layers sit next to the allocator itself:

* :class:`QueryWindow` (via :meth:`SecureRam.query_window`) attributes
  allocations to the query that made them.  Windows are tracked
  through a :mod:`contextvars` stack, so windows opened by different
  asyncio tasks (or ``to_thread`` contexts) never see each other's
  allocations: two interleaved queries each report their *own* peak
  instead of smearing a shared high-water mark.  Every
  per-statement report in the engine goes through windows;
  :meth:`SecureRam.reset_peak` is the global (token-wide) window for
  direct callers.
* :class:`RamReservations` is the admission-control ledger used by the
  query service: *planned* peak claims are reserved against the budget
  before a query is allowed to run, and the ledger hard-asserts that
  the admitted set never pledges more than the capacity.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Iterator, Tuple

from repro.errors import RamExhausted
from repro.flash.constants import PAGE_SIZE, RAM_SIZE

#: stack of open :class:`QueryWindow` objects for the current context.
#: A ``ContextVar`` (not a plain attribute) so concurrent tasks each
#: see only the windows they opened themselves.
_WINDOWS: "contextvars.ContextVar[Tuple[QueryWindow, ...]]" = \
    contextvars.ContextVar("secure_ram_windows", default=())


class QueryWindow:
    """Per-query RAM attribution: bytes held and peak held.

    ``held`` counts the bytes allocated *through this window's
    context* that are still live; ``peak`` is its high-water mark.
    Nested windows in the same context stack (a DML statement running
    a predicate QEPSJ, say) each see the allocation; windows opened by
    other tasks never do.  The window also remembers the allocations
    themselves, so a statement that raises mid-pipeline can hand back
    what its abandoned operators still hold (:meth:`free_all`).
    """

    __slots__ = ("held", "peak", "closed", "allocations")

    def __init__(self) -> None:
        self.held = 0
        self.peak = 0
        self.closed = False
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


class RamReservation:
    """One admitted query's pledge against the RAM budget."""

    __slots__ = ("ledger", "nbytes", "label", "released")

    def __init__(self, ledger: "RamReservations", nbytes: int, label: str):
        self.ledger = ledger
        self.nbytes = nbytes
        self.label = label
        self.released = False

    def release(self) -> None:
        """Return the pledged bytes to the pool (idempotent)."""
        if not self.released:
            self.released = True
            self.ledger._release(self)


class RamReservations:
    """Admission-control ledger of planned peak claims.

    Unlike :class:`SecureRam` this never backs real allocations: it
    accounts for the *pledged* peaks of admitted-but-possibly-running
    queries, so an admission controller can refuse to start a query
    whose planned ``ram_peak`` does not fit alongside the already
    admitted set.  :meth:`reserve` hard-raises when a claim would push
    the pledged total past the capacity -- the "admitted set never
    exceeds the budget" invariant is asserted here, not sampled.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("reservation capacity must be positive")
        self.capacity = capacity
        self.reserved = 0
        self.active = 0
        self.peak_reserved = 0
        self.max_coadmitted = 0
        self.total_reservations = 0

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.reserved

    def fits(self, nbytes: int) -> bool:
        """Whether a claim of ``nbytes`` fits alongside the admitted set."""
        return self.reserved + nbytes <= self.capacity

    def reserve(self, nbytes: int, label: str = "") -> RamReservation:
        """Pledge ``nbytes``; raises :class:`RamExhausted` over budget."""
        if nbytes < 0:
            raise ValueError("reservation size must be non-negative")
        if not self.fits(nbytes):
            raise RamExhausted(
                f"admission would over-pledge secure RAM: {nbytes} bytes "
                f"for {label or 'query'} with only {self.free_bytes} of "
                f"{self.capacity} bytes unpledged"
            )
        self.reserved += nbytes
        self.active += 1
        self.total_reservations += 1
        self.peak_reserved = max(self.peak_reserved, self.reserved)
        self.max_coadmitted = max(self.max_coadmitted, self.active)
        return RamReservation(self, nbytes, label)

    def _release(self, reservation: RamReservation) -> None:
        self.reserved -= reservation.nbytes
        self.active -= 1


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
            self.ram.live_allocations = max(0, self.ram.live_allocations - 1)
            self.ram._live.discard(self)

    def resize(self, nbytes: int) -> None:
        """Grow or shrink the allocation in place."""
        if self.freed:
            raise RamExhausted("resize of a freed allocation")
        delta = nbytes - self.nbytes
        if delta > 0:
            self.ram._acquire(delta, self.label)
        elif delta < 0:
            self.ram._release(-delta)
        self.nbytes = nbytes


class SecureRam:
    """Byte-accurate allocator over the token's RAM budget."""

    def __init__(self, capacity: int = RAM_SIZE, page_size: int = PAGE_SIZE):
        if capacity <= 0:
            raise ValueError("RAM capacity must be positive")
        self.capacity = capacity
        self.page_size = page_size
        self.used = 0
        self.peak_used = 0
        self.live_allocations = 0
        #: registry of outstanding allocations so a power cycle can
        #: reclaim buffers stranded by a mid-statement crash (strong
        #: references: a stranded buffer must stay reclaimable even
        #: after its owning operator is garbage-collected)
        self._live: "set[Allocation]" = set()

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
        self._acquire(nbytes, label)
        self.live_allocations += 1
        allocation = Allocation(self, nbytes, label)
        self._live.add(allocation)
        for window in _WINDOWS.get():
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
    def _acquire(self, nbytes: int, label: str) -> None:
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self.used + nbytes > self.capacity:
            raise RamExhausted(
                f"cannot allocate {nbytes} bytes for {label or 'operator'}: "
                f"{self.free_bytes} of {self.capacity} bytes free"
            )
        self.used += nbytes
        self.peak_used = max(self.peak_used, self.used)
        for window in _WINDOWS.get():
            if not window.closed:
                window._charge(nbytes)

    def _release(self, nbytes: int) -> None:
        self.used -= nbytes
        for window in _WINDOWS.get():
            if not window.closed:
                window._uncharge(nbytes)

    # ------------------------------------------------------------------
    @contextmanager
    def query_window(self) -> Iterator[QueryWindow]:
        """Attribute the enclosed allocations to one query.

        ``with ram.query_window() as win:`` opens a per-query
        attribution window; ``win.peak`` after (or during) the block is
        the peak of *this* query's allocations only.  Windows nest
        (inner statements charge every enclosing window of the same
        context) but are invisible across tasks/threads, so
        interleaved queries cannot smear each other's reported peaks
        the way the global :meth:`reset_peak` window could.
        """
        window = QueryWindow()
        stack = _WINDOWS.get()
        token = _WINDOWS.set(stack + (window,))
        try:
            yield window
        finally:
            window.closed = True
            _WINDOWS.reset(token)

    def reservations(self) -> RamReservations:
        """A fresh admission ledger sized to this RAM's capacity."""
        return RamReservations(self.capacity)

    def reset_peak(self) -> int:
        """Start a new peak-tracking window; returns the old peak.

        ``peak_used`` is a high-water mark and never decays on its own,
        so per-query reports must open a fresh window before executing
        (otherwise every query reports the token's lifetime peak).
        The new window starts at the currently allocated ``used``.
        """
        old = self.peak_used
        self.peak_used = self.used
        return old

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
