"""Scale-out GhostDB: a hash-partitioned fleet of secure tokens.

One secure token caps throughput at a single 64 KB chip and one USB
channel.  :class:`~repro.shard.fleet.ShardedGhostDB` -- built as
``ShardedGhostDB(N)`` -- runs N fully independent tokens:

* the **root** table's rows are hash-partitioned by global id
  (:class:`~repro.shard.router.ShardRouter`); every non-root table is
  replicated on every shard, so each shard's SKTs, climbing indexes
  and referential checks stay complete and local;
* SELECTs touching the root **scatter**: each shard plans its own
  fragment against its own statistics catalog and runs the ordinary
  QEPSJ + projection pipeline; the gather side merges the per-shard
  sorted streams by (translated) anchor id and applies the global
  finishing stages -- aggregation, DISTINCT, ORDER BY / LIMIT --
  exactly once (:mod:`repro.shard.gather`);
* DML routes by the same hash, so delta logs and compaction stay
  per-shard; deletes RESTRICT-check on every shard before any shard
  tombstones;
* the no-leak audit stays **per channel**: each shard's token audits
  its own outbound traffic, so the single-token security argument
  applies shard-wise without a fleet-level trusted party;
* ``snapshot`` writes the whole fleet -- shards and root maps -- as
  one image file by one atomic rename (:mod:`repro.persist`), and
  ``GhostDB.restore`` hands it back.
"""

from repro.shard.fleet import FleetQueryPlan, ShardedGhostDB
from repro.shard.router import ShardRouter

__all__ = [
    "FleetQueryPlan",
    "ShardRouter",
    "ShardedGhostDB",
]
