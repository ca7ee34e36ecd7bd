"""The durable image container: one file format, zero replay on restore.

File layout::

    +--------------------------------------------------------------+
    | header (100 bytes, struct !8sIQQQ32s32s)                     |
    |   magic "GHOSTIMG" | version | meta_len | blob_len |         |
    |   total_size | sha256(meta) | sha256(blob)                   |
    +--------------------------------------------------------------+
    | meta: zlib of the out-of-band buffer count and lengths       |
    |   (!I, then !Q each) followed by the pickled database        |
    +--------------------------------------------------------------+
    | blob: the out-of-band buffers back to back (one per token:   |
    |   the payloads of its mapped flash pages)                    |
    +--------------------------------------------------------------+

:func:`dumps` and :func:`loads` are the only encoder and the only
decoder of that container, in memory; :func:`write_image` and
:func:`read_image` keep it in a file.  Writing is atomic (temp file, fsync,
rename over the target): a crash mid-snapshot leaves either the previous
image or none, never a torn one -- a fleet too, since it is one file.
Reading validates the header, the file size and the metadata checksum
eagerly (O(metadata)) and hands the unpickler the blob's buffers as
``memoryview`` slices of an ``mmap``; the blob checksum is verified
only under ``verify=True`` (it would touch every byte of the image) --
or when the blob is empty, where checking costs nothing.  Checksums
detect corruption, they do not authenticate: restore unpickles, so only
load images this program wrote.

What goes *into* an image is not decided here: it is ``pickle`` of the
database object, and each class that holds something an image must not
carry leaves it out in its own ``__getstate__``.  The NAND array hands
its page payloads over as one :class:`pickle.PickleBuffer`, which
travels out of band into the blob, so the host-visible image holds
exactly the live flash content and nothing that was ever logically
deleted; on restore the NAND serves those pages lazily, copying a
page's bytes on its first read.

Snapshots are refused while a compaction job is in flight: the shadow
files of a half-done fold are not part of the live catalog and a
restored image could not resume the job.  The service layer runs a
snapshot as one turn on the token, so no statement interleaves with
it.
"""

from __future__ import annotations

import contextlib
import hashlib
import mmap
import os
import pickle
import struct
import zlib
from itertools import accumulate
from typing import Any, Dict, List, Tuple

from repro.errors import ImageError, PersistError

IMAGE_MAGIC = b"GHOSTIMG"
IMAGE_VERSION = 6

#: magic | version | meta_len | blob_len | total_size | sha(meta) | sha(blob)
_HEADER = struct.Struct("!8sIQQQ32s32s")
#: the out-of-band buffer count that opens the metadata
_COUNT = struct.Struct("!I")


# ---------------------------------------------------------------------------
# the container
# ---------------------------------------------------------------------------

def dumps(db: Any) -> bytes:
    """``db`` pickled into the bytes of one image: header, metadata
    and blob."""
    buffers: List[pickle.PickleBuffer] = []
    payload = pickle.dumps(db, protocol=5, buffer_callback=buffers.append)
    blobs = [buf.raw() for buf in buffers]
    lengths = [blob.nbytes for blob in blobs]
    meta_bytes = zlib.compress(
        _COUNT.pack(len(lengths)) +
        struct.pack(f"!{len(lengths)}Q", *lengths) + payload, 6)
    blob_len = sum(lengths)
    blob_sha = hashlib.sha256()
    for blob in blobs:
        blob_sha.update(blob)
    header = _HEADER.pack(
        IMAGE_MAGIC, IMAGE_VERSION, len(meta_bytes), blob_len,
        _HEADER.size + len(meta_bytes) + blob_len,
        hashlib.sha256(meta_bytes).digest(), blob_sha.digest(),
    )
    return b"".join([header, meta_bytes, *blobs])


def loads(data: Any, verify: bool = False) -> Any:
    """The database the image bytes ``data`` hold -- any buffer, such
    as :func:`dumps` output or the ``mmap`` :func:`read_image` passes.
    The unpickler gets the blob's buffers as ``memoryview`` slices of
    ``data``, so no page is copied here."""
    view = memoryview(data)
    meta_len, blob_len, meta_sha, blob_sha = _read_header(view, len(view))
    blob_off = _HEADER.size + meta_len
    meta_bytes = view[_HEADER.size:blob_off]
    if hashlib.sha256(meta_bytes).digest() != meta_sha:
        raise ImageError("image metadata checksum mismatch")
    blob = view[blob_off:]
    if (verify or not blob_len) and \
            hashlib.sha256(blob).digest() != blob_sha:
        raise ImageError("image page-blob checksum mismatch")
    try:
        meta = zlib.decompress(meta_bytes)
        (count,) = _COUNT.unpack_from(meta)
        lengths = struct.unpack_from(f"!{count}Q", meta, _COUNT.size)
        ends = list(accumulate(lengths))
        return pickle.loads(
            memoryview(meta)[_COUNT.size + 8 * count:],
            buffers=[blob[end - n:end] for end, n in zip(ends, lengths)])
    except Exception as exc:
        raise ImageError(f"image metadata undecodable: {exc}") from exc


def write_image(path: str, db: Any) -> Dict[str, Any]:
    """Atomically write ``db`` as one image at ``path``; returns a size
    summary.  An ``OSError`` on the way is raised as
    :class:`PersistError`, and the temp file is removed."""
    image = dumps(db)
    meta_len, blob_len, _, _ = _read_header(image, len(image))
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(image)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        # a failed write leaves no half-written temp file behind
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise PersistError(
                f"cannot write image {path!r}: {exc}") from exc
        raise
    return {"path": path, "bytes": len(image),
            "meta_bytes": meta_len, "blob_bytes": blob_len}


def _read_header(raw: Any, actual_size: int) -> Tuple[int, int, bytes, bytes]:
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


def read_image(path: str, verify: bool = False) -> Any:
    """:func:`loads` the image at ``path``; the blob stays in the file
    behind an ``mmap``."""
    try:
        with open(path, "rb") as fh:   # the mmap keeps its own reference
            size = os.fstat(fh.fileno()).st_size
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) \
                if size else b""
    except OSError as exc:
        raise ImageError(f"cannot read image {path!r}: {exc}") from exc
    return loads(data, verify)


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

def snapshot_db(db: Any, path: str) -> Dict[str, Any]:
    """Write ``db`` -- one token, or a fleet of them -- as one image
    file at ``path``, once every token is built and has no compaction
    job in flight (:class:`PersistError` otherwise).

    Returns a summary dict (sizes, page and file counts).
    """
    tokens = getattr(db, "shards", [db])
    for k, token_db in enumerate(tokens):
        what = "snapshot" if token_db is db else f"snapshot (shard {k})"
        if token_db.catalog is None:
            raise PersistError(f"{what} requires a built database: "
                               "call build() first")
        busy = token_db.compactions_in_flight()
        if busy:
            raise PersistError(
                f"{what} refused: compaction in flight for {busy} -- "
                f"finish or abort the jobs first"
            )
    summary = write_image(path, db)
    summary["pages"] = sum(t.token.ftl.mapped_pages() for t in tokens)
    summary["files"] = sum(t.token.store.n_files for t in tokens)
    return summary
