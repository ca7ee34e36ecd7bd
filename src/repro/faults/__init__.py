"""Deterministic fault injection, every fault named by an ordinal.

Three injectors, one per layer of the deployment:

* :class:`~repro.faults.flash.FlashFaults` -- torn page writes, power
  loss at a chosen write ordinal, transient read bit-flips, attached
  to a :class:`~repro.flash.nand.NandFlash` as its ``fault_hook``;
* :class:`~repro.faults.wire.WireFaults` -- dropped connections,
  truncated frames and stalled peers, attached to a
  :class:`~repro.service.server.GhostServer` response path;
* :class:`~repro.faults.fleet.FleetFaults` -- one token dying
  mid-scatter / mid-DML / mid-compaction-preflight, attached to a
  :class:`~repro.shard.fleet.ShardedGhostDB`.

Every injector names a fault by the ordinal of the operation it hits
and counts what it saw, so a test can fault every ordinal.  Production
code never imports this package; the hooks it drives are no-ops when
no injector is attached.
"""

from repro.faults.flash import FlashFaults
from repro.faults.fleet import FleetFaults
from repro.faults.wire import WireFaults

__all__ = ["FlashFaults", "FleetFaults", "WireFaults"]
