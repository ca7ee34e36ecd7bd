"""Durable fleet images: one manifest plus one token image per shard.

A fleet snapshot is N ordinary token images (written by
:func:`repro.persist.image.snapshot_db`, one per shard, at
``<path>.shard<k>``) plus a manifest at ``<path>``: the same
checksummed container with ``kind: "fleet"``, an empty blob and, as
metadata, :meth:`ShardedGhostDB.to_meta
<repro.shard.fleet.ShardedGhostDB.to_meta>` -- the coordinator state the
shards cannot reconstruct themselves (shard count, the root table's
global-id counter, the per-shard local->global root-id maps, the
idempotency ledger).  ``GhostDB.restore()`` reads the container and
dispatches on ``kind``, so one entry point restores both deployment
shapes.

The manifest is written *after* every shard image succeeded, and
atomically: a crash mid-snapshot leaves either the previous manifest or
none, never a torn fleet.  Snapshot refuses to start while any shard
has a compaction job in flight, for the same reason the single token
does, plus a fleet-specific one: the root maps in the manifest must
agree with every shard's id space at one instant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.core.ghostdb import GhostDB
from repro.persist.image import require_quiescent, snapshot_db, write_image

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.shard.fleet import ShardedGhostDB


def _shard_path(path: str, k: int) -> str:
    return f"{path}.shard{k}"


def snapshot_fleet(db: "ShardedGhostDB", path: str) -> Dict[str, int]:
    """Write the fleet to ``path`` (+ one image per shard)."""
    for k, shard in enumerate(db.shards):
        require_quiescent(shard, f"fleet snapshot (shard {k})")
    totals: Dict[str, int] = {"shards": db.n_shards}
    for k, shard in enumerate(db.shards):
        summary = snapshot_db(shard, _shard_path(path, k))
        for key, value in summary.items():
            if isinstance(value, int):
                totals[key] = totals.get(key, 0) + value
    manifest = write_image(path, {"kind": "fleet", **db.to_meta()})
    totals["manifest_bytes"] = manifest["bytes"]
    return totals


def restore_fleet(path: str, meta: Dict[str, Any],
                  verify: bool = False) -> "ShardedGhostDB":
    """Rebuild a :class:`ShardedGhostDB` from its manifest's metadata
    (already read from ``path``) and the shard images beside it."""
    from repro.shard.fleet import ShardedGhostDB

    shards = [GhostDB.restore(_shard_path(path, k), verify)
              for k in range(meta["n_shards"])]
    return ShardedGhostDB.from_meta(meta, shards)
