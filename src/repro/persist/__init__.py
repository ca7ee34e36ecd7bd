"""Durable images: snapshot/restore of a built GhostDB.

:mod:`repro.persist.image` is the one checksummed, atomically written
container (``write_image`` / ``read_image``) that both a token image
and a fleet manifest are stored in.  ``snapshot_db`` puts a database's
own durable form -- :meth:`GhostDB.to_meta
<repro.core.ghostdb.GhostDB.to_meta>`, which collects each layer's
``to_meta`` -- into it; :meth:`GhostDB.restore
<repro.core.ghostdb.GhostDB.restore>` hands the container's content
back to ``from_meta``, with the page payloads left behind an ``mmap``
and materialized lazily by the flash read path, so restoring is
milliseconds where a build is seconds.
"""

from repro.persist.image import (IMAGE_MAGIC, IMAGE_VERSION, image_info,
                                 read_image, snapshot_db, write_image)

__all__ = ["IMAGE_MAGIC", "IMAGE_VERSION", "image_info", "read_image",
           "snapshot_db", "write_image"]
