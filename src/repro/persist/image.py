"""The durable token image: one file, zero replay on restore.

File layout::

    +--------------------------------------------------------------+
    | header (100 bytes, struct !8sIQQQ32s32s)                     |
    |   magic "GHOSTIMG" | version | meta_len | blob_len |         |
    |   total_size | sha256(meta) | sha256(blob)                   |
    +--------------------------------------------------------------+
    | meta: pickled metadata (schema, FTL map, file directory,     |
    |   catalog, stats sketches, ledger, channel audit log)        |
    +--------------------------------------------------------------+
    | blob: concatenated payloads of the *valid* physical pages    |
    +--------------------------------------------------------------+

Restore validates the header, the file size and the metadata checksum
eagerly (O(metadata)), rebuilds every in-RAM structure from the
metadata, and attaches the blob to the NAND array as an ``mmap``-backed
lazy store: a page's bytes are only copied out of the mapping on its
first read.  The blob checksum is verified only under ``verify=True``
(it would touch every byte of the image).

Only *valid* pages -- those reachable through the FTL's logical-to-
physical map -- are written to the blob.  Garbage pages (programmed but
invalidated by an out-of-place rewrite) are unreachable through every
read path and are erased before reuse, so their payloads are dropped:
the host-visible image contains exactly the live flash content and
nothing that was ever logically deleted.

Snapshots are refused while a compaction job is in flight: the shadow
files of a half-done fold are not part of the live catalog and a
restored image could not resume the job.  The service layer additionally
routes snapshots through its writer lane so they never interleave with
a DML statement.
"""

from __future__ import annotations

import hashlib
import itertools
import mmap
import os
import pickle
import re
import struct
import zlib
from array import array
from collections import Counter
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.core.catalog import SecureCatalog, TableImage
from repro.errors import ImageError, PersistError
from repro.flash.store import FlashFile, FlashStore
from repro.hardware.token import SecureToken
from repro.index.btree import BPlusTree
from repro.index.climbing import ClimbingIndex
from repro.index.keys import KeyCodec
from repro.index.skt import SubtreeKeyTable
from repro.sql.binder import Binder
from repro.storage.codec import IntType, RowCodec
from repro.storage.heap import HeapFile
from repro.untrusted.engine import UntrustedEngine

if TYPE_CHECKING:  # pragma: no cover - import cycle with ghostdb
    from repro.core.ghostdb import GhostDB

IMAGE_MAGIC = b"GHOSTIMG"
IMAGE_VERSION = 2

#: magic | version | meta_len | blob_len | total_size | sha(meta) | sha(blob)
_HEADER = struct.Struct("!8sIQQQ32s32s")

_TEMP_NAME = re.compile(r"^__temp_(\d+)$")


# ---------------------------------------------------------------------------
# snapshot
# ---------------------------------------------------------------------------

def _index_meta(ci: ClimbingIndex) -> Dict[str, Any]:
    bt = ci.btree
    return {
        "name": ci.name,
        "levels": list(ci.levels),
        "column_type": ci.key_codec.column_type,
        "btree": {
            "file": bt.file.name,
            "key_width": bt.key_width,
            "payload_width": bt.payload_width,
            "page_size": bt.page_size,
            "root_page": bt.root_page,
            "height": bt.height,
            "n_entries": bt.n_entries,
            "n_leaves": bt.n_leaves,
        },
        "runs": {level: {"file": f.name}
                 for level, f in ci._runs.items()},
        # the delta log's logical entries; replayed through _bloom_add
        # on restore so the Bloom filter (hashes, size doublings) comes
        # back bit-identical
        "delta": list(ci._delta),
        "delta_file": (ci._delta_file.name
                       if ci._delta_file is not None else None),
    }


def _catalog_meta(catalog: SecureCatalog) -> Dict[str, Any]:
    images = {}
    for name, img in catalog.images.items():
        images[name] = {
            "n_rows": img.n_rows,
            "hidden_cols": [c.name for c in img.hidden_columns],
            "heap_file": img.heap.file.name if img.heap else None,
            "heap_rows": img.heap.n_rows if img.heap else 0,
        }
    skts = {
        owner: {
            "columns": list(skt.columns),
            "file": skt.heap.file.name,
            "n_rows": skt.heap.n_rows,
        }
        for owner, skt in catalog.skts.items()
    }
    return {
        "images": images,
        "skts": skts,
        "attr_indexes": [
            [key, _index_meta(ci)]
            for key, ci in sorted(catalog.attr_indexes.items())
        ],
        "id_indexes": [
            [table, _index_meta(ci)]
            for table, ci in sorted(catalog.id_indexes.items())
        ],
        "raw_rows": catalog.raw_rows,
        "tombstones": {t: sorted(s) for t, s in catalog.tombstones.items()},
        "tombstone_logs": {
            t: log.name for t, log in catalog._tombstone_logs.items()
        },
        "fk_deltas": catalog.fk_deltas,
        "data_generations": catalog.data_generations,
        "stats_generations": catalog.stats_generations,
        "built_generations": catalog.built_generations,
        "stats": catalog.stats,
    }


def snapshot_db(db: "GhostDB", path: str) -> Dict[str, Any]:
    """Serialize ``db`` into one durable image file at ``path``.

    Refuses to run before :meth:`~repro.core.ghostdb.GhostDB.build`
    and while any incremental compaction job is in flight.  The write
    is atomic (temp file + ``os.replace``): a crash mid-snapshot leaves
    either the previous image or none, never a torn one.

    Returns a summary dict (sizes, page and file counts).
    """
    if db.catalog is None:
        raise PersistError("snapshot requires a built database: "
                           "call build() first")
    compactor = db._compactor
    if compactor is not None and compactor._jobs:
        raise PersistError(
            f"snapshot refused: compaction in flight for "
            f"{sorted(compactor._jobs)} -- finish or abort the jobs first"
        )

    token = db.token
    ftl = token.ftl
    nand = token.nand
    channel = token.channel

    # --- blob: payloads of every valid physical page, back to back.
    # nand.read_page is the *physical* accessor (uncharged) and falls
    # through to the mmap backing, so re-snapshotting a restored
    # database works without materializing cold pages... page by page.
    blob_parts: List[bytes] = []
    # flattened (ppn, offset, length, crc) quadruples; the crc is the
    # page's spare-area checksum so a restored token keeps detecting
    # torn writes that predate the snapshot
    page_dir = array("q")
    offset = 0
    for ppn in sorted(ftl._p2l):
        payload = nand.read_page(ppn)
        crc = nand._spare.get(ppn)
        if crc is None:
            crc = zlib.crc32(payload)
        page_dir.extend((ppn, offset, len(payload), crc))
        blob_parts.append(payload)
        offset += len(payload)
    blob = b"".join(blob_parts)

    meta: Dict[str, Any] = {
        "config": token.config,
        "throughput_mbps": channel.throughput_mbps,
        "schema": db.schema,
        "indexed_columns": db._indexed_columns,
        "ledger": {
            "counters": dict(token.ledger.counters),
            "time_us": {
                label: dict(parts)
                for label, parts in token.ledger.time_us_by_label.items()
            },
        },
        "channel": {
            "bytes_to_secure": channel.stats.bytes_to_secure,
            "bytes_to_untrusted": channel.stats.bytes_to_untrusted,
            "messages_to_secure": channel.stats.messages_to_secure,
            "messages_to_untrusted": channel.stats.messages_to_untrusted,
            "outbound_log": list(channel.stats.outbound_log),
        },
        "nand": {
            "state": bytes(nand._state),
            "erase_counts": array("q", nand.erase_counts).tobytes(),
        },
        "ftl": {
            # every lpn >= _next_lpn was never allocated and is
            # unmapped, so only the allocated prefix is stored -- the
            # big vector of a mostly-empty device stays tiny
            "l2p": array("q", ftl._l2p[:ftl._next_lpn]).tobytes(),
            "invalid_per_block": array(
                "q", ftl._invalid_per_block).tobytes(),
            "free_blocks": array("q", ftl._free_blocks).tobytes(),
            "active_block": ftl._active_block,
            "frontier": ftl._frontier,
            "next_lpn": ftl._next_lpn,
            "free_lpns": array("q", ftl._free_lpns).tobytes(),
            "gc_runs": ftl.gc_runs,
            "gc_pages_moved": ftl.gc_pages_moved,
        },
        "pages": page_dir.tobytes(),
        "files": [
            {"name": f.name, "lpns": list(f._lpns),
             "fills": list(f._page_fill)}
            for f in token.store._files.values()
        ],
        "catalog": _catalog_meta(db.catalog),
        "untrusted_rows": db.untrusted.export_rows(),
        # shadow-file suffix counter: persisted so post-restore
        # compaction never reuses a ~cN tag already live in the store
        "compactor_seq": db._compactor._seq,
        # exactly-once retry contract survives restore
        "ikeys": db.ikeys.to_meta(),
    }
    meta_bytes = zlib.compress(pickle.dumps(meta, protocol=4), 6)

    total_size = _HEADER.size + len(meta_bytes) + len(blob)
    header = _HEADER.pack(
        IMAGE_MAGIC, IMAGE_VERSION, len(meta_bytes), len(blob), total_size,
        hashlib.sha256(meta_bytes).digest(), hashlib.sha256(blob).digest(),
    )
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(meta_bytes)
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return {
        "path": path,
        "bytes": total_size,
        "meta_bytes": len(meta_bytes),
        "blob_bytes": len(blob),
        "pages": len(page_dir) // 4,
        "files": len(meta["files"]),
    }


# ---------------------------------------------------------------------------
# restore
# ---------------------------------------------------------------------------

def _ints(raw: bytes) -> List[int]:
    """Decode an ``array('q')`` byte string back into a list of ints."""
    arr = array("q")
    arr.frombytes(raw)
    return list(arr)

def _read_header(raw: bytes, actual_size: int) -> Tuple[int, int, bytes, bytes]:
    if len(raw) < _HEADER.size:
        raise ImageError(
            f"image truncated: {len(raw)} bytes is smaller than the "
            f"{_HEADER.size}-byte header"
        )
    magic, version, meta_len, blob_len, total_size, meta_sha, blob_sha = \
        _HEADER.unpack_from(raw)
    if magic != IMAGE_MAGIC:
        raise ImageError(f"not a GhostDB image (magic {magic!r})")
    if version != IMAGE_VERSION:
        raise ImageError(
            f"image version {version} unsupported "
            f"(this build reads version {IMAGE_VERSION})"
        )
    if total_size != actual_size or \
            total_size != _HEADER.size + meta_len + blob_len:
        raise ImageError(
            f"image torn: header promises {total_size} bytes "
            f"({meta_len} meta + {blob_len} blob), file has {actual_size}"
        )
    return meta_len, blob_len, meta_sha, blob_sha


def image_info(path: str) -> Dict[str, Any]:
    """Header summary of an image file, with eager validity checks."""
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
    meta_len, blob_len, _, _ = _read_header(head, size)
    return {"path": path, "version": IMAGE_VERSION, "bytes": size,
            "meta_bytes": meta_len, "blob_bytes": blob_len}


def _restore_index(store: FlashStore, m: Dict[str, Any]) -> ClimbingIndex:
    bm = m["btree"]
    btree = BPlusTree(
        store.get(bm["file"]), bm["key_width"], bm["payload_width"],
        bm["page_size"], bm["root_page"], bm["height"],
        bm["n_entries"], bm["n_leaves"],
    )
    runs = {level: store.get(rm["file"])
            for level, rm in m["runs"].items()}
    ci = ClimbingIndex(m["name"], m["levels"], KeyCodec(m["column_type"]),
                       btree, runs, store)
    # replaying the appends through _bloom_add reproduces the delta-key
    # Bloom filter exactly, including every rebuild-on-overflow doubling
    for key, own_id in m["delta"]:
        ci._delta.append((key, own_id))
        ci._bloom_add(key)
    if m["delta_file"] is not None:
        ci._delta_file = store.get(m["delta_file"])
    return ci


def _restore_catalog(db: "GhostDB", meta: Dict[str, Any]) -> SecureCatalog:
    cm = meta["catalog"]
    schema = db.schema
    store = db.token.store
    page_size = db.token.page_size
    catalog = SecureCatalog(schema, db.token)
    for name, im in cm["images"].items():
        table = schema.table(name)
        hidden = [table.column(n) for n in im["hidden_cols"]]
        heap = None
        if im["heap_file"] is not None:
            codec = RowCodec([c.type for c in hidden])
            heap = HeapFile(store.get(im["heap_file"]), codec, page_size)
            heap.n_rows = im["heap_rows"]
        catalog.images[name] = TableImage(
            table=table, n_rows=im["n_rows"],
            hidden_columns=hidden, heap=heap,
        )
    for owner, sm in cm["skts"].items():
        codec = RowCodec([IntType(4) for _ in sm["columns"]])
        heap = HeapFile(store.get(sm["file"]), codec, page_size)
        heap.n_rows = sm["n_rows"]
        catalog.skts[owner] = SubtreeKeyTable(owner, sm["columns"], heap)
    for key, im in cm["attr_indexes"]:
        catalog.attr_indexes[tuple(key)] = _restore_index(store, im)
    for table, im in cm["id_indexes"]:
        catalog.id_indexes[table] = _restore_index(store, im)
    catalog.raw_rows = cm["raw_rows"]
    catalog.tombstones = {t: set(ids)
                          for t, ids in cm["tombstones"].items()}
    catalog._tombstone_logs = {
        t: store.get(name) for t, name in cm["tombstone_logs"].items()
    }
    catalog.fk_deltas = cm["fk_deltas"]
    catalog.data_generations = cm["data_generations"]
    catalog.stats_generations = cm["stats_generations"]
    catalog.built_generations = cm["built_generations"]
    catalog.stats = cm["stats"]
    return catalog


def restore_db(path: str, verify: bool = False) -> "GhostDB":
    """Rebuild a :class:`GhostDB` from a durable image, zero replay.

    Header, file size and metadata checksum are validated eagerly; the
    page blob is attached to the NAND array through an ``mmap`` and
    only verified byte-by-byte under ``verify=True``.  The restored
    database is bit-identical to the snapshotted one: same simulated
    costs, same audit log, same statistics sketches, same query
    results, same future GC behaviour.
    """
    from repro.core.ghostdb import GhostDB

    try:
        size = os.path.getsize(path)
        fh = open(path, "rb")
    except OSError as exc:
        raise ImageError(f"cannot read image {path!r}: {exc}") from exc
    try:
        meta_len, blob_len, meta_sha, blob_sha = _read_header(
            fh.read(_HEADER.size), size
        )
        meta_bytes = fh.read(meta_len)
        if len(meta_bytes) != meta_len or \
                hashlib.sha256(meta_bytes).digest() != meta_sha:
            raise ImageError("image metadata checksum mismatch")
        blob_off = _HEADER.size + meta_len
        mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        blob_view = memoryview(mm)[blob_off:blob_off + blob_len]
        if verify and hashlib.sha256(blob_view).digest() != blob_sha:
            raise ImageError("image page-blob checksum mismatch")
    finally:
        fh.close()   # the mmap keeps its own reference to the file

    try:
        meta = pickle.loads(zlib.decompress(meta_bytes))
    except Exception as exc:
        raise ImageError(f"image metadata undecodable: {exc}") from exc
    db = GhostDB(config=meta["config"],
                 indexed_columns=meta["indexed_columns"])
    token: SecureToken = db.token
    token.channel.throughput_mbps = meta["throughput_mbps"]

    # --- simulated-cost state: ledger totals and channel audit log
    token.ledger.counters = Counter(meta["ledger"]["counters"])
    token.ledger.time_us_by_label.clear()
    for label, parts in meta["ledger"]["time_us"].items():
        token.ledger.time_us_by_label[label].update(parts)
    ch = meta["channel"]
    stats = token.channel.stats
    stats.bytes_to_secure = ch["bytes_to_secure"]
    stats.bytes_to_untrusted = ch["bytes_to_untrusted"]
    stats.messages_to_secure = ch["messages_to_secure"]
    stats.messages_to_untrusted = ch["messages_to_untrusted"]
    stats.outbound_log = list(ch["outbound_log"])

    # --- NAND array: states and wear now, payloads lazily via mmap
    nand = token.nand
    nm = meta["nand"]
    if len(nm["state"]) != nand.n_pages:
        raise ImageError(
            f"image flash geometry ({len(nm['state'])} pages) does not "
            f"match its own config ({nand.n_pages} pages)"
        )
    nand._state = bytearray(nm["state"])
    nand.erase_counts = _ints(nm["erase_counts"])
    nand._data = {}
    page_dir = array("q")
    page_dir.frombytes(meta["pages"])
    nand.attach_backing(
        blob_view,
        {page_dir[i]: (page_dir[i + 1], page_dir[i + 2])
         for i in range(0, len(page_dir), 4)},
    )
    # spare-area checksums: the restored token detects torn writes
    # (and read disturbances) on pages written before the snapshot
    nand._spare = {page_dir[i]: page_dir[i + 3]
                   for i in range(0, len(page_dir), 4)}

    # --- FTL mapping (p2l falls out of l2p)
    ftl = token.ftl
    fm = meta["ftl"]
    prefix = _ints(fm["l2p"])
    ftl._l2p = prefix + [-1] * (nand.n_pages - len(prefix))
    # every mapped lpn sits inside the persisted prefix (lpns past
    # _next_lpn were never allocated), so only the prefix is scanned
    ftl._p2l = {ppn: lpn for lpn, ppn in enumerate(prefix) if ppn >= 0}
    ftl._invalid_per_block = _ints(fm["invalid_per_block"])
    ftl._free_blocks = _ints(fm["free_blocks"])
    ftl._active_block = fm["active_block"]
    ftl._frontier = fm["frontier"]
    ftl._next_lpn = fm["next_lpn"]
    ftl._free_lpns = _ints(fm["free_lpns"])
    ftl.gc_runs = fm["gc_runs"]
    ftl.gc_pages_moved = fm["gc_pages_moved"]

    # --- flash file directory
    store = token.store
    store._files.clear()
    next_temp = 0
    for desc in meta["files"]:
        f = FlashFile(store, desc["name"])
        f._lpns = list(desc["lpns"])
        f._page_fill = list(desc["fills"])
        store._files[desc["name"]] = f
        match = _TEMP_NAME.match(desc["name"])
        if match:
            next_temp = max(next_temp, int(match.group(1)) + 1)
    store._temp_ids = itertools.count(next_temp)

    # --- schema, untrusted engine, catalog, engines
    db.schema = meta["schema"]
    db.untrusted = UntrustedEngine.import_rows(
        db.schema, meta["untrusted_rows"])
    db._binder = Binder(db.schema)
    db.catalog = _restore_catalog(db, meta)
    db._wire_engines()
    db._compactor._seq = meta["compactor_seq"]
    from repro.core.recovery import IdempotencyLedger
    db.ikeys = IdempotencyLedger.from_meta(meta.get("ikeys"))
    return db
