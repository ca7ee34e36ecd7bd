"""Corrupt every structural boundary of the durable image format.

Restore must reject each mutation with :class:`PersistError` (or its
:class:`ImageError` subclass) and never hand back a partial database;
the pristine image must keep restoring bit-identically afterwards.
"""

import shutil

import pytest

from repro.core.ghostdb import GhostDB
from repro.errors import ImageError, PersistError
from repro.persist.image import _HEADER, read_image, write_image

from chaos import PROBES, assert_oracle

_H = _HEADER.size


def _mutate(src, dst, fn):
    raw = bytearray(open(src, "rb").read())
    out = fn(raw)
    with open(dst, "wb") as fh:
        fh.write(bytes(out if out is not None else raw))
    return dst


def _meta_blob_lens(raw):
    _, _, meta_len, blob_len, _, _, _ = _HEADER.unpack_from(raw)
    return meta_len, blob_len


def _flip(raw, off):
    raw[off] ^= 0xFF
    return raw


#: every structural boundary of a GHOSTIMG file; each entry mutates a
#: pristine copy so restore must reject it outright
IMAGE_MUTATIONS = {
    "truncated_below_header": lambda raw: raw[:_H // 2],
    "bad_magic": lambda raw: _flip(raw, 0),
    "bad_version": lambda raw: _flip(raw, 8),
    "truncated_mid_meta":
        lambda raw: raw[:_H + _meta_blob_lens(raw)[0] // 2],
    "truncated_mid_blob":
        lambda raw: raw[:len(raw) - max(1, _meta_blob_lens(raw)[1] // 2)],
    "extra_trailing_byte": lambda raw: raw + b"\x00",
    "flipped_meta_byte": lambda raw: _flip(raw, _H + 5),
}


@pytest.mark.parametrize("boundary", sorted(IMAGE_MUTATIONS))
def test_corrupt_single_image_is_rejected(single_image, tmp_path,
                                          boundary):
    bad = _mutate(single_image, str(tmp_path / f"{boundary}.img"),
                  IMAGE_MUTATIONS[boundary])
    with pytest.raises(PersistError):
        GhostDB.restore(bad)


def test_flipped_blob_byte_fails_verify(single_image, tmp_path):
    def flip_blob(raw):
        meta_len, blob_len = _meta_blob_lens(raw)
        return _flip(raw, _H + meta_len + blob_len // 2)
    bad = _mutate(single_image, str(tmp_path / "blobflip.img"), flip_blob)
    with pytest.raises(PersistError):
        GhostDB.restore(bad, verify=True)


def test_missing_image_file_is_rejected(tmp_path):
    with pytest.raises(PersistError):
        GhostDB.restore(str(tmp_path / "never-written.img"))


def test_pristine_image_still_restores(single_image):
    db = GhostDB.restore(single_image, verify=True)
    for sql in PROBES:
        assert_oracle(db, sql)


# ----------------------------------------------------------------------
# the fleet: every shard and the coordinator state in one image file
# ----------------------------------------------------------------------
def _fleet_copy(fleet_image, tmp_path):
    """A private copy of the fleet's image file."""
    dst = str(tmp_path / "fleet.img")
    shutil.copy(fleet_image, dst)
    return dst


@pytest.mark.parametrize("boundary", sorted(IMAGE_MUTATIONS))
def test_corrupt_fleet_manifest_is_rejected(fleet_image, tmp_path,
                                            boundary):
    """A fleet image is a GHOSTIMG like any other: the same table of
    structural mutations, the same rejections."""
    dst = _fleet_copy(fleet_image, tmp_path)
    _mutate(dst, dst, IMAGE_MUTATIONS[boundary])
    with pytest.raises(PersistError):
        GhostDB.restore(dst)


def test_fleet_manifest_bad_magic(fleet_image, tmp_path):
    dst = _fleet_copy(fleet_image, tmp_path)
    _mutate(dst, dst, lambda raw: b"NOTANIMG" + raw[8:])
    with pytest.raises(ImageError, match="magic"):
        GhostDB.restore(dst)


def test_fleet_manifest_truncated_json(fleet_image, tmp_path):
    dst = _fleet_copy(fleet_image, tmp_path)
    _mutate(dst, dst, lambda raw: raw[:len(raw) // 2])
    with pytest.raises(ImageError, match="torn|truncated"):
        GhostDB.restore(dst)


def test_fleet_manifest_wrong_version(fleet_image, tmp_path):
    dst = _fleet_copy(fleet_image, tmp_path)
    _mutate(dst, dst,
            lambda raw: raw[:8] + (99).to_bytes(4, "big") + raw[12:])
    with pytest.raises(ImageError, match="version 99"):
        GhostDB.restore(dst)


@pytest.mark.parametrize("verify", [False, True])
def test_fleet_manifest_edited_root_maps_are_rejected(fleet_image, tmp_path,
                                                      verify):
    """Swap two ``root_maps`` entries between the shards -- still
    well-formed -- and a fleet would restore answering with the wrong
    rows, agreeing with its own oracle, which reassembles global ids
    from the same maps.  The maps are under the metadata checksum."""
    dst = _fleet_copy(fleet_image, tmp_path)
    fleet = read_image(dst)
    maps = fleet._root_maps
    maps[0][0], maps[1][0] = maps[1][0], maps[0][0]
    edited_path = str(tmp_path / "edited.img")
    write_image(edited_path, fleet)
    raw = open(edited_path, "rb").read()
    edited = raw[_H:_H + _meta_blob_lens(raw)[0]]

    def splice(raw):
        # a careful editor: lengths fixed up, content hashes left alone
        fields = list(_HEADER.unpack_from(raw))
        old_len, fields[2] = fields[2], len(edited)
        fields[4] += len(edited) - old_len
        return _HEADER.pack(*fields) + edited + bytes(raw[_H + old_len:])
    _mutate(dst, dst, splice)
    with pytest.raises(ImageError, match="checksum"):
        GhostDB.restore(dst, verify=verify)


#: the header's sha256(blob): like the blob, checked only by verify=True
_BLOB_SHA = range(_H - 32, _H)


@pytest.mark.parametrize("verify", [False, True])
def test_fleet_manifest_any_flipped_byte_is_rejected(fleet_image, tmp_path,
                                                     verify):
    """Flip each byte of the fleet image in turn: every header and
    metadata byte is rejected in both modes, every page-blob byte and
    the blob's checksum under ``verify=True`` (without it, a flipped
    page fails its NAND CRC on first read)."""
    dst = _fleet_copy(fleet_image, tmp_path)
    pristine = open(dst, "rb").read()
    meta_len, _ = _meta_blob_lens(pristine)
    checked = range(len(pristine) if verify else _H + meta_len)
    # flip and restore each byte in place: a truncating rewrite of the
    # whole file per offset costs tens of ms on some filesystems
    with open(dst, "r+b") as fh:
        for off in checked:
            fh.seek(off)
            fh.write(bytes([pristine[off] ^ 0xFF]))
            fh.flush()
            if verify or off not in _BLOB_SHA:
                with pytest.raises(ImageError):
                    GhostDB.restore(dst, verify=verify)
            fh.seek(off)
            fh.write(pristine[off:off + 1])
            fh.flush()
    assert open(dst, "rb").read() == pristine
    GhostDB.restore(dst, verify=verify)       # pristine again: restores


def test_pristine_fleet_still_restores(fleet_image):
    fleet = GhostDB.restore(fleet_image, verify=True)
    for sql in PROBES:
        assert_oracle(fleet, sql)
