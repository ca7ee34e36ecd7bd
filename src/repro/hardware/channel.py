"""The Untrusted <-> Secure communication channel.

Models the USB link in two respects:

* **time** -- the bytes of every transfer are counted in the cost
  ledger at the configured throughput (the paper's Figure 14 sweeps
  0.3-10 MBps; USB 2.0 full speed is 12 Mb/s ~= 1.5 MB/s);
* **security** -- every outbound (Secure -> Untrusted) message is
  recorded in a ledger.  GhostDB's security argument is exactly that
  this ledger only ever contains the user's query (which is public by
  assumption): "the only information revealed to a potential spy is
  which queries you pose".  Attempting to send payload flagged as
  hidden raises :class:`~repro.errors.LeakError`, and the test suite
  audits the ledger after every plan.

A dedicated buffer in the smart USB key is wired to the channel, so
downloads from Untrusted consume no secure RAM (paper section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import LeakError
from repro.flash.stats import COMM, CostLedger


@dataclass
class OutboundMessage:
    """Audit record of one Secure -> Untrusted transfer."""

    kind: str          # e.g. "query", "vis_request"
    nbytes: int
    description: str


@dataclass
class ChannelStats:
    """Byte and message counters per channel direction."""

    bytes_to_secure: int = 0
    bytes_to_untrusted: int = 0
    messages_to_secure: int = 0
    messages_to_untrusted: int = 0
    outbound_log: List[OutboundMessage] = field(default_factory=list)


class UsbChannel:
    """Byte-accounted, leak-audited duplex link."""

    #: outbound message kinds carrying public information only: query
    #: texts, Vis requests derived from them, and the visible halves of
    #: inserted rows (Visible data is public storage on Untrusted by
    #: definition).  A query result is not among them: nothing
    #: releases one to Untrusted.
    SAFE_OUTBOUND_KINDS = frozenset({"query", "vis_request",
                                     "dml_visible"})

    def __init__(self, ledger: CostLedger):
        self.ledger = ledger
        #: MB/s; USB 2.0 full speed until :meth:`set_throughput`
        self.throughput_mbps = 1.5
        self.stats = ChannelStats()

    def set_throughput(self, mbps: float) -> None:
        """Change the simulated throughput (the Figure 14 sweep); it
        prices every later transfer, so it must be positive."""
        if mbps <= 0:
            raise ValueError("throughput must be positive")
        self.throughput_mbps = mbps

    # ------------------------------------------------------------------
    def _charge(self, nbytes: int) -> None:
        # one message of ``nbytes`` at the current throughput: the
        # throughput is the cell's unit price, so bytes sent at another
        # setting (the Figure 14 sweep) are simply other cells
        self.ledger.charge(COMM, self.throughput_mbps, 1, nbytes)

    # ------------------------------------------------------------------
    def to_secure(self, nbytes: int, description: str = "") -> None:
        """Untrusted -> Secure transfer (Visible data entering the key)."""
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        self._charge(nbytes)
        self.stats.bytes_to_secure += nbytes
        self.stats.messages_to_secure += 1

    def to_untrusted(self, nbytes: int, kind: str, description: str = "",
                     contains_hidden: bool = False) -> None:
        """Secure -> Untrusted transfer.  Audited; hidden payloads refused."""
        if contains_hidden:
            raise LeakError(
                f"refusing to send hidden data to Untrusted: {description}"
            )
        if kind not in self.SAFE_OUTBOUND_KINDS:
            raise LeakError(
                f"outbound message kind {kind!r} is not derived from the "
                f"public query; refusing to send"
            )
        self._charge(nbytes)
        self.stats.bytes_to_untrusted += nbytes
        self.stats.messages_to_untrusted += 1
        self.stats.outbound_log.append(
            OutboundMessage(kind=kind, nbytes=nbytes, description=description)
        )

    # ------------------------------------------------------------------
    def reset_counters(self) -> None:
        """Zero the byte and message counters; the audit log stays."""
        self.stats = ChannelStats(outbound_log=self.stats.outbound_log)

    def to_meta(self) -> Tuple[float, ChannelStats]:
        """Durable form: throughput, counters and the audit log."""
        return self.throughput_mbps, self.stats

    def from_meta(self, meta: Tuple[float, ChannelStats]) -> None:
        """Adopt :meth:`to_meta` output."""
        self.throughput_mbps, self.stats = meta

    def audit_outbound(self) -> List[OutboundMessage]:
        """Everything that ever left the Secure token, for leak checks."""
        return list(self.stats.outbound_log)
