"""Durable fleet images: one manifest plus one token image per shard.

A fleet snapshot is N ordinary single-token images (written by
:func:`repro.persist.image.snapshot_db`, one per shard, at
``<path>.shard<k>``) plus a small manifest at ``<path>`` holding the
coordinator state the shards cannot reconstruct themselves: the shard
count, the root table's global-id counter and the per-shard
local->global root-id maps.  ``GhostDB.restore()`` sniffs the
manifest's magic, so one entry point restores both deployment shapes.

The manifest is written *after* every shard image succeeded, and
atomically (temp file + ``os.replace``): a crash mid-snapshot leaves
either the previous manifest -- still pointing at the previous,
complete shard images if their paths differ, or at the old ones
otherwise -- or no manifest at all, never a torn fleet.  Snapshot
refuses to start while any shard has a compaction job in flight, for
the same reason the single token does, plus a fleet-specific one: the
root maps in the manifest must agree with every shard's id space at
one instant.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Dict

from repro.core.recovery import IdempotencyLedger
from repro.errors import ImageError, PersistError
from repro.persist.image import restore_db, snapshot_db

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.shard.fleet import ShardedGhostDB

FLEET_MAGIC = b"GHOSTFLT"
FLEET_VERSION = 1


def _shard_path(path: str, k: int) -> str:
    return f"{path}.shard{k}"


def snapshot_fleet(db: "ShardedGhostDB", path: str) -> Dict[str, int]:
    """Write the fleet to ``path`` (+ one image per shard)."""
    for k, shard in enumerate(db.shards):
        if shard.catalog is None:
            raise PersistError("snapshot requires a built database: "
                               "call build() first")
        compactor = shard._compactor
        if compactor is not None and compactor._jobs:
            raise PersistError(
                f"fleet snapshot refused: shard {k} has compaction in "
                f"flight for {sorted(compactor._jobs)} -- finish or "
                f"abort the jobs first"
            )
    totals: Dict[str, int] = {"shards": db.n_shards}
    for k, shard in enumerate(db.shards):
        summary = snapshot_db(shard, _shard_path(path, k))
        for key, value in summary.items():
            if isinstance(value, int):
                totals[key] = totals.get(key, 0) + value
    manifest = {
        "version": FLEET_VERSION,
        "n_shards": db.n_shards,
        "root": db.root,
        "next_root_gid": db._next_root_gid,
        "root_maps": [list(m) for m in db._root_maps],
        "shard_images": [os.path.basename(_shard_path(path, k))
                         for k in range(db.n_shards)],
        "ikeys": db.ikeys.to_meta(),
    }
    body = FLEET_MAGIC + json.dumps(manifest).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(body)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    totals["manifest_bytes"] = len(body)
    return totals


def restore_fleet(path: str, verify: bool = False) -> "ShardedGhostDB":
    """Rebuild a :class:`ShardedGhostDB` from a fleet manifest."""
    from repro.shard.fleet import ShardedGhostDB

    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ImageError(f"cannot read fleet manifest {path!r}: {exc}")
    if raw[:len(FLEET_MAGIC)] != FLEET_MAGIC:
        raise ImageError(f"{path!r} is not a fleet manifest "
                         f"(bad magic {raw[:8]!r})")
    try:
        manifest = json.loads(raw[len(FLEET_MAGIC):].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ImageError(f"torn fleet manifest {path!r}: {exc}")
    if manifest.get("version") != FLEET_VERSION:
        raise ImageError(
            f"unsupported fleet manifest version "
            f"{manifest.get('version')!r} (expected {FLEET_VERSION})"
        )
    n = manifest["n_shards"]
    base = os.path.dirname(os.path.abspath(path))
    shards = [
        restore_db(os.path.join(base, name), verify=verify)
        for name in manifest["shard_images"]
    ]
    if len(shards) != n:
        raise ImageError(
            f"fleet manifest lists {len(shards)} image(s) for "
            f"{n} shard(s)"
        )
    fleet = ShardedGhostDB(shards)
    fleet._root_maps = [list(m) for m in manifest["root_maps"]]
    fleet._next_root_gid = manifest["next_root_gid"]
    fleet.ikeys = IdempotencyLedger.from_meta(manifest.get("ikeys"))
    if fleet.root != manifest["root"]:
        raise ImageError(
            f"fleet manifest root {manifest['root']!r} does not match "
            f"restored schema root {fleet.root!r}"
        )
    return fleet
