"""Fleet-layer fault injection: tokens dying mid-statement.

Attached to a :class:`~repro.shard.fleet.ShardedGhostDB` as
``fleet.faults``; the fleet calls :meth:`check` every time a statement
is about to touch a shard, so ``kill_at=(shard, ordinal)`` kills that
shard at a precise point *inside* a statement -- mid-scatter, between
the check and apply rounds of a DML statement, or during a compaction's
all-shard preflight.  :meth:`is_up` is the non-destructive health
probe the fleet's :meth:`~repro.shard.fleet.ShardedGhostDB.fleet_health`
uses.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.errors import ShardDown


class FleetFaults:
    """Ordinal-named shard-kill schedule over one fleet.

    ``down`` lists shards dead from the start; ``kill_at=(k, n)``
    kills shard ``k`` at the ``n``-th shard-touch (0-based, counted
    across the whole fleet) so the same schedule always dies at the
    same point of the same statement.
    """

    def __init__(self, down: Iterable[int] = (),
                 kill_at: Optional[Tuple[int, int]] = None):
        self._down = set(down)
        self.kill_at = kill_at
        self.touches = 0
        self.killed: List[int] = []

    def check(self, shard_id: int) -> None:
        """Called by the fleet before touching ``shard_id``; raises
        :class:`ShardDown` when the schedule says the token is dead."""
        ordinal = self.touches
        self.touches += 1
        if (self.kill_at is not None and shard_id == self.kill_at[0]
                and ordinal >= self.kill_at[1]
                and shard_id not in self._down):
            self._down.add(shard_id)
            self.killed.append(shard_id)
        if shard_id in self._down:
            raise ShardDown(f"shard {shard_id} is down")

    def is_up(self, shard_id: int) -> bool:
        """Non-destructive health probe (no touch counted)."""
        return shard_id not in self._down

    def kill(self, shard_id: int) -> None:
        """Mark ``shard_id`` dead immediately."""
        self._down.add(shard_id)

    def revive(self, shard_id: int) -> None:
        """Bring ``shard_id`` back (the fleet must still recover it)."""
        self._down.discard(shard_id)
