"""Cost accounting shared by the flash device and the USB channel.

The paper's simulator is *I/O accurate*: it reports the exact number of
pages read/written in flash (including FTL traffic) and the exact
number of bytes moved between the flash data register and RAM.
Execution time is then derived from those counts.  :class:`CostLedger`
reproduces that methodology and adds per-operator attribution so the
cost-decomposition experiments (Figures 15 and 16) can be regenerated.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator

#: component names used throughout the engine
READ = "read"
WRITE = "write"
ERASE = "erase"
COMM = "comm"

UNLABELLED = "(unlabelled)"


class CostLedger:
    """Accumulates simulated time and I/O counters, split by operator label.

    Charges are attributed to the label on top of the label stack, which
    operators push via :meth:`label`.  The grand totals are always
    maintained regardless of labels.
    """

    def __init__(self) -> None:
        self.counters: Counter = Counter()
        self.time_us_by_label: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._label_stack: list[str] = []

    # ------------------------------------------------------------------
    # labels
    # ------------------------------------------------------------------
    @property
    def current_label(self) -> str:
        """The operator label charges are currently attributed to."""
        return self._label_stack[-1] if self._label_stack else UNLABELLED

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
    def charge(self, component: str, time_us: float, **counters: int) -> None:
        """Record ``time_us`` of ``component`` time plus counter bumps."""
        self.time_us_by_label[self.current_label][component] += time_us
        for key, value in counters.items():
            self.counters[key] += value

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def total_time_us(self, component: str | None = None) -> float:
        """Total simulated time, optionally restricted to one component."""
        total = 0.0
        for breakdown in self.time_us_by_label.values():
            if component is None:
                total += sum(breakdown.values())
            else:
                total += breakdown.get(component, 0.0)
        return total

    def total_time_s(self) -> float:
        """Total simulated time in seconds."""
        return self.total_time_us() / 1e6

    def label_time_us(self, label: str) -> float:
        """Simulated time attributed to one operator label."""
        return sum(self.time_us_by_label.get(label, {}).values())

    def by_label_s(self) -> Dict[str, float]:
        """Seconds per label, e.g. ``{"Merge": 0.12, "SJoin": 0.4}``."""
        return {
            label: sum(parts.values()) / 1e6
            for label, parts in self.time_us_by_label.items()
        }

    def snapshot(self) -> "LedgerSnapshot":
        """Capture current totals for later differencing."""
        return LedgerSnapshot(
            counters=Counter(self.counters),
            time_us={
                label: dict(parts)
                for label, parts in self.time_us_by_label.items()
            },
        )

    def reset(self) -> None:
        """Zero all counters and times (labels stack is preserved)."""
        self.counters.clear()
        self.time_us_by_label.clear()

    def to_meta(self) -> "LedgerSnapshot":
        """Durable form: the totals (the label stack is a statement's)."""
        return self.snapshot()

    def from_meta(self, meta: "LedgerSnapshot") -> None:
        """Adopt :meth:`to_meta` output as this ledger's totals."""
        self.reset()
        self.counters.update(meta.counters)
        for label, parts in meta.time_us.items():
            self.time_us_by_label[label].update(parts)


class LedgerSnapshot:
    """Immutable copy of a ledger's totals, used for interval accounting."""

    def __init__(self, counters: Counter, time_us: Dict[str, Dict[str, float]]):
        self.counters = counters
        self.time_us = time_us

    def total_time_us(self) -> float:
        return sum(sum(parts.values()) for parts in self.time_us.values())
