"""The Secure token: secure chip + RAM + NAND flash + USB channel.

:class:`SecureToken` wires the substrates together and is the single
handle operators receive.  It owns the :class:`CostLedger`, so a whole
query's simulated time and its per-operator decomposition can be read
off one object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro.flash.constants import ID_SIZE, RAM_SIZE, FlashParams
from repro.flash.ftl import Ftl
from repro.flash.nand import NandFlash
from repro.flash.stats import CostLedger
from repro.flash.store import FlashStore
from repro.hardware.channel import UsbChannel
from repro.hardware.ram import SecureRam


@dataclass(frozen=True)
class TokenConfig:
    """Hardware configuration of the smart USB key (paper section 2.2)."""

    ram_bytes: int = RAM_SIZE
    flash: FlashParams = field(default_factory=FlashParams)


class SecureToken:
    """A simulated tamper-resistant smart USB key."""

    def __init__(self, config: TokenConfig | None = None):
        self.config = config or TokenConfig()
        self.ledger = CostLedger()
        self.ram = SecureRam(
            capacity=self.config.ram_bytes,
            page_size=self.config.flash.page_size,
        )
        self.nand = NandFlash(self.config.flash)
        self.ftl = Ftl(self.nand, self.ledger, self.config.flash)
        self.store = FlashStore(self.ftl)
        self.channel = UsbChannel(self.ledger)

    # ------------------------------------------------------------------
    @property
    def page_size(self) -> int:
        return self.config.flash.page_size

    @property
    def ids_per_page(self) -> int:
        """How many 4-byte tuple identifiers fit in one flash page."""
        return self.page_size // ID_SIZE

    def label(self, name: str):
        """Attribute subsequent I/O and communication costs to ``name``."""
        return self.ledger.label(name)

    def set_throughput(self, mbps: float) -> None:
        """Change the simulated USB throughput (Figure 14 sweep)."""
        self.channel.set_throughput(mbps)

    # ------------------------------------------------------------------
    def elapsed_s(self) -> float:
        """Total simulated seconds accumulated on this token."""
        return self.ledger.total_time_s()

    def reset_costs(self) -> None:
        """Zero the cost counts (storage content is preserved)."""
        self.ledger.reset()
        self.channel.reset_counters()

    # ------------------------------------------------------------------
    # durable form
    # ------------------------------------------------------------------
    def to_meta(self) -> Tuple[Dict[str, Any], bytes]:
        """Durable form of the whole key, as ``(meta, blob)``: each
        layer's own ``to_meta`` under its name, plus the page payloads.
        Secure RAM is volatile and holds nothing between statements."""
        ftl_meta, blob = self.ftl.to_meta()
        meta = {
            "config": self.config,
            "ledger": self.ledger.to_meta(),
            "channel": self.channel.to_meta(),
            "ftl": ftl_meta,
            "store": self.store.to_meta(),
        }
        return meta, blob

    def from_meta(self, meta: Dict[str, Any], blob) -> None:
        """Adopt :meth:`to_meta` output on a token built from the same
        ``config``; ``blob`` backs the NAND pages lazily."""
        self.ledger.from_meta(meta["ledger"])
        self.channel.from_meta(meta["channel"])
        self.ftl.from_meta(meta["ftl"], blob)
        self.store.from_meta(meta["store"])
