"""Cost accounting shared by the flash device and the USB channel.

The paper's simulator is *I/O accurate*: it reports the exact number of
pages read/written in flash (including FTL traffic) and the exact
number of bytes moved between the flash data register and RAM.
Execution time is then derived from those counts.  :class:`CostLedger`
reproduces that methodology to the letter: it stores integer counts and
nothing else, one *cell* ``[operations, bytes]`` per ``(operator label,
component, unit price)``.  Simulated time, the I/O counters and every
per-operator decomposition (Figures 15 and 16) are views computed from
the cells when somebody reads them (:class:`LedgerSnapshot`), so what a
statement is reported to cost depends on what it did and on nothing the
ledger held before it.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from math import fsum
from typing import Dict, Iterator, List, Optional, Tuple, Union

#: component names used throughout the engine
READ = "read"
WRITE = "write"
ERASE = "erase"
COMM = "comm"
#: the FTL's relocation traffic: priced like READ / WRITE, counted apart
GC_READ = "gc_read"
GC_WRITE = "gc_write"

UNLABELLED = "(unlabelled)"

#: unit price of a component: ``(us per operation, ns per byte)`` for
#: the flash components, the throughput in MB/s for :data:`COMM`
Price = Union[Tuple[float, float], float]
#: ``(operator label, component, unit price)``
CellKey = Tuple[str, str, Price]

#: the I/O counters each component's cells add up to, as
#: ``(counter, cell slot)`` -- slot 0 is operations, slot 1 is bytes
_COUNTERS_OF = {
    READ: (("pages_read", 0), ("bytes_to_ram", 1)),
    WRITE: (("pages_written", 0), ("bytes_from_ram", 1)),
    ERASE: (("blocks_erased", 0),),
    COMM: (("comm_bytes", 1),),
    GC_READ: (("pages_read", 0), ("gc_pages_read", 0)),
    GC_WRITE: (("pages_written", 0), ("gc_pages_written", 0)),
}


def _cell_ns(component: str, price: Price, ops: int, nbytes: int) -> float:
    """Simulated nanoseconds of one cell: the only place counts become
    time.  At Table-1 prices (whole nanoseconds) the flash expression is
    exact, so sums over cells stay exact until the one final division;
    at any price it is a function of the counts alone, whatever order
    they were charged in."""
    if component == COMM:
        return nbytes * 1000.0 / price      # bytes / (MB/s) == us
    per_op_us, per_byte_ns = price
    return ops * (per_op_us * 1000.0) + nbytes * per_byte_ns


@dataclass(frozen=True)
class LedgerSnapshot:
    """Immutable integer copy of a ledger: ``cells`` plus the unpriced
    ``events``.  Two snapshots subtract into the counts of the interval
    between them; every time and counter view is derived from one.  (A
    planner estimate is a snapshot too, of expected -- fractional --
    counts, so it is timed exactly like a measurement.)

    Sums of simulated time are :func:`math.fsum` -- correctly rounded,
    hence independent of cell order and of the interpreter's ``sum``.
    """

    cells: Dict[CellKey, Tuple[int, int]]
    events: Dict[str, int]

    def __sub__(self, earlier: "LedgerSnapshot") -> "LedgerSnapshot":
        """What was charged after ``earlier`` was taken (changed cells
        and events only)."""
        cells = {}
        for key, (ops, nbytes) in self.cells.items():
            ops0, nbytes0 = earlier.cells.get(key, (0, 0))
            if ops != ops0 or nbytes != nbytes0:
                cells[key] = (ops - ops0, nbytes - nbytes0)
        events = {name: n - earlier.events.get(name, 0)
                  for name, n in self.events.items()
                  if n != earlier.events.get(name, 0)}
        return LedgerSnapshot(cells, events)

    def _total_ns(self, component: Optional[str] = None) -> float:
        return fsum(_cell_ns(c, price, *cell)
                    for (_, c, price), cell in self.cells.items()
                    if component is None or c == component)

    def total_time_us(self, component: Optional[str] = None) -> float:
        """Total simulated time, optionally restricted to one component."""
        return self._total_ns(component) / 1e3

    def total_time_s(self) -> float:
        """Total simulated time in seconds."""
        return self._total_ns() / 1e9

    def by_label_s(self) -> Dict[str, float]:
        """Seconds per label, e.g. ``{"Merge": 0.12, "SJoin": 0.4}``."""
        parts: Dict[str, List[float]] = {}
        for (label, component, price), cell in self.cells.items():
            parts.setdefault(label, []).append(
                _cell_ns(component, price, *cell))
        return {label: fsum(ns) / 1e9 for label, ns in parts.items()}

    @property
    def counters(self) -> Counter:
        """The non-zero I/O counters (sums over cells) and events."""
        out = dict(self.events)
        for (_, component, _), cell in self.cells.items():
            for name, slot in _COUNTERS_OF[component]:
                out[name] = out.get(name, 0) + cell[slot]
        return Counter({name: n for name, n in out.items() if n})


class CostLedger:
    """Counts operations and bytes, split by operator label.

    Charges are attributed to the label on top of the label stack, which
    operators push via :meth:`label`.  Reporting goes through
    :meth:`snapshot`; an interval is the difference of two snapshots.
    """

    def __init__(self) -> None:
        self._cells: Dict[CellKey, List[int]] = {}
        self._events: Counter = Counter()
        self._label_stack: list[str] = []

    # ------------------------------------------------------------------
    # labels
    # ------------------------------------------------------------------
    @contextmanager
    def label(self, name: str) -> Iterator[None]:
        """Attribute all charges inside the block to ``name``."""
        self._label_stack.append(name)
        try:
            yield
        finally:
            self._label_stack.pop()

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    def charge(self, component: str, price: Price, ops: int,
               nbytes: int = 0) -> None:
        """Record ``ops`` operations of ``component`` moving ``nbytes``
        bytes, at unit ``price``, under the current label."""
        stack = self._label_stack
        key = (stack[-1] if stack else UNLABELLED, component, price)
        try:
            cell = self._cells[key]
        except KeyError:
            cell = self._cells[key] = [0, 0]
        cell[0] += ops
        cell[1] += nbytes

    def count(self, event: str, n: int = 1) -> None:
        """Bump an unpriced event counter (spill runs, compaction steps)."""
        self._events[event] += n

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> LedgerSnapshot:
        """The current counts, for reporting and for differencing."""
        return LedgerSnapshot(
            {key: tuple(cell) for key, cell in self._cells.items()},
            dict(self._events))

    @property
    def counters(self) -> Counter:
        """I/O and event counters (see :attr:`LedgerSnapshot.counters`)."""
        return self.snapshot().counters

    def total_time_us(self, component: Optional[str] = None) -> float:
        """Total simulated time, optionally restricted to one component."""
        return self.snapshot().total_time_us(component)

    def total_time_s(self) -> float:
        """Total simulated time in seconds."""
        return self.snapshot().total_time_s()

    def by_label_s(self) -> Dict[str, float]:
        """Seconds per label, e.g. ``{"Merge": 0.12, "SJoin": 0.4}``."""
        return self.snapshot().by_label_s()

    def reset(self) -> None:
        """Zero every count (the label stack is preserved)."""
        self._cells.clear()
        self._events.clear()
