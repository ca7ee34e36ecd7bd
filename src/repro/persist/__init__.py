"""Durable images: snapshot/restore of a built GhostDB or fleet.

:mod:`repro.persist.image` is the one checksummed, atomically written
container (``dumps`` / ``loads`` in memory, ``write_image`` /
``read_image`` on disk).  What it holds is
``pickle`` of the database object itself -- one token or a whole
fleet, in one file -- with each class leaving out what an image must
not carry in its own ``__getstate__``.  The flash page payloads travel
out of band and stay behind an ``mmap`` on restore, materialized
lazily by the flash read path, so restoring is milliseconds where a
build is seconds.
"""

from repro.persist.image import (IMAGE_MAGIC, IMAGE_VERSION, image_info,
                                 read_image, snapshot_db, write_image)

__all__ = ["IMAGE_MAGIC", "IMAGE_VERSION", "image_info", "read_image",
           "snapshot_db", "write_image"]
