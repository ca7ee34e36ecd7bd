"""The durable image container: one file format, zero replay on restore.

File layout::

    +--------------------------------------------------------------+
    | header (100 bytes, struct !8sIQQQ32s32s)                     |
    |   magic "GHOSTIMG" | version | meta_len | blob_len |         |
    |   total_size | sha256(meta) | sha256(blob)                   |
    +--------------------------------------------------------------+
    | meta: a pickled, compressed dict; meta["kind"] says what the |
    |   image holds ("token": one database; "fleet": a manifest)   |
    +--------------------------------------------------------------+
    | blob: raw bytes the meta points into (a token's page         |
    |   payloads; empty for a fleet manifest)                      |
    +--------------------------------------------------------------+

:func:`write_image` and :func:`read_image` are the only writer and the
only reader of that container.  Writing is atomic (temp file, fsync,
rename over the target): a crash mid-snapshot leaves either the previous
image or none, never a torn one.  Reading validates the header, the file size
and the metadata checksum eagerly (O(metadata)) and hands the blob back
as a ``memoryview`` over an ``mmap``; its checksum is verified only
under ``verify=True`` (it would touch every byte of the image) -- or
when the blob is empty, where checking costs nothing.  Checksums detect
corruption, they do not authenticate: restore unpickles, so only load
images this program wrote.

What goes *into* an image is not decided here: every layer exports and
imports its own durable form (``to_meta`` / ``from_meta``), and
:meth:`GhostDB.to_meta <repro.core.ghostdb.GhostDB.to_meta>` names the
layers in order.  Only pages reachable through the FTL's map reach the
blob, so the host-visible image holds exactly the live flash content
and nothing that was ever logically deleted; on restore the NAND serves
them lazily, copying a page's bytes on its first read.

Snapshots are refused while a compaction job is in flight: the shadow
files of a half-done fold are not part of the live catalog and a
restored image could not resume the job.  The service layer runs a
snapshot as one turn on the token, so no statement interleaves with
it.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import pickle
import struct
import zlib
from typing import TYPE_CHECKING, Any, Dict, Tuple

from repro.errors import ImageError, PersistError

if TYPE_CHECKING:  # pragma: no cover - import cycle with ghostdb
    from repro.core.ghostdb import GhostDB

IMAGE_MAGIC = b"GHOSTIMG"
IMAGE_VERSION = 4

#: magic | version | meta_len | blob_len | total_size | sha(meta) | sha(blob)
_HEADER = struct.Struct("!8sIQQQ32s32s")


# ---------------------------------------------------------------------------
# the container
# ---------------------------------------------------------------------------

def write_image(path: str, meta: Dict[str, Any],
                blob: bytes = b"") -> Dict[str, Any]:
    """Atomically write ``meta`` and ``blob`` as one image at ``path``;
    returns a size summary."""
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
    return {"path": path, "bytes": total_size,
            "meta_bytes": len(meta_bytes), "blob_bytes": len(blob)}


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


def read_image(path: str, verify: bool = False
               ) -> Tuple[Dict[str, Any], memoryview]:
    """Validate the image at ``path``; returns ``(meta, blob)`` with the
    blob left in the file behind an ``mmap``."""
    try:
        size = os.path.getsize(path)
        fh = open(path, "rb")
    except OSError as exc:
        raise ImageError(f"cannot read image {path!r}: {exc}") from exc
    with fh:   # the mmap keeps its own reference to the file
        meta_len, blob_len, meta_sha, blob_sha = _read_header(
            fh.read(_HEADER.size), size
        )
        meta_bytes = fh.read(meta_len)
        if len(meta_bytes) != meta_len or \
                hashlib.sha256(meta_bytes).digest() != meta_sha:
            raise ImageError("image metadata checksum mismatch")
        blob_off = _HEADER.size + meta_len
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        blob = memoryview(mapped)[blob_off:blob_off + blob_len]
        if (verify or not blob_len) and \
                hashlib.sha256(blob).digest() != blob_sha:
            raise ImageError("image page-blob checksum mismatch")
    try:
        meta = pickle.loads(zlib.decompress(meta_bytes))
    except Exception as exc:
        raise ImageError(f"image metadata undecodable: {exc}") from exc
    return meta, blob


def image_info(path: str) -> Dict[str, Any]:
    """Header summary of an image file, with eager validity checks."""
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
    meta_len, blob_len, _, _ = _read_header(head, size)
    return {"path": path, "version": IMAGE_VERSION, "bytes": size,
            "meta_bytes": meta_len, "blob_bytes": blob_len}


# ---------------------------------------------------------------------------
# one database -> one image (the way back is GhostDB.restore)
# ---------------------------------------------------------------------------

def require_quiescent(db: "GhostDB", what: str = "snapshot") -> None:
    """Raise :class:`PersistError` unless ``db`` is built and no
    incremental compaction job is in flight."""
    if db.catalog is None:
        raise PersistError(f"{what} requires a built database: "
                           "call build() first")
    busy = db.compactions_in_flight()
    if busy:
        raise PersistError(
            f"{what} refused: compaction in flight for {busy} -- "
            f"finish or abort the jobs first"
        )


def snapshot_db(db: "GhostDB", path: str) -> Dict[str, Any]:
    """Serialize ``db`` into one durable image file at ``path``.

    Returns a summary dict (sizes, page and file counts).
    """
    require_quiescent(db)
    meta, blob = db.to_meta()
    summary = write_image(path, {"kind": "token", **meta}, blob)
    summary["pages"] = db.token.ftl.mapped_pages()
    summary["files"] = db.token.store.n_files
    return summary
