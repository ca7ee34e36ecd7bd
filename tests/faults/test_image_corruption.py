"""Corrupt every structural boundary of the durable image format.

Restore must reject each mutation with :class:`PersistError` (or its
:class:`ImageError` subclass) and never hand back a partial database;
the pristine image must keep restoring bit-identically afterwards.
"""

import os
import pickle
import shutil
import zlib

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
# the fleet manifest (the same container, kind "fleet") and its shards
# ----------------------------------------------------------------------
def _fleet_copy(fleet_image, tmp_path):
    """Copy the manifest and its shard images into ``tmp_path``."""
    dst = str(tmp_path / "fleet.img")
    shutil.copy(fleet_image, dst)
    k = 0
    while os.path.exists(f"{fleet_image}.shard{k}"):
        shutil.copy(f"{fleet_image}.shard{k}", f"{dst}.shard{k}")
        k += 1
    return dst


def _rewrite_manifest(path, fn):
    """Edit the manifest's metadata and write it back as a *valid*
    container (fresh checksums): only restore's own cross-checks stand
    between such a manifest and a wrong fleet."""
    meta, _ = read_image(path)
    fn(meta)
    write_image(path, meta)


@pytest.mark.parametrize("boundary", sorted(IMAGE_MUTATIONS))
def test_corrupt_fleet_manifest_is_rejected(fleet_image, tmp_path,
                                            boundary):
    """The manifest is a GHOSTIMG like any other: the same table of
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


def test_fleet_manifest_shard_count_mismatch(fleet_image, tmp_path):
    dst = _fleet_copy(fleet_image, tmp_path)
    _rewrite_manifest(dst, lambda m: m.update(n_shards=1))
    with pytest.raises(ImageError, match="1 shard"):
        GhostDB.restore(dst)
    _rewrite_manifest(dst, lambda m: m.update(n_shards=3))
    with pytest.raises(ImageError):         # no third shard image
        GhostDB.restore(dst)


def test_fleet_manifest_root_mismatch(fleet_image, tmp_path):
    dst = _fleet_copy(fleet_image, tmp_path)
    _rewrite_manifest(dst, lambda m: m.update(root="C"))
    with pytest.raises(ImageError, match="root"):
        GhostDB.restore(dst)


@pytest.mark.parametrize("verify", [False, True])
def test_fleet_manifest_edited_root_maps_are_rejected(fleet_image, tmp_path,
                                                      verify):
    """The hole the JSON manifest had: swap two ``root_maps`` entries
    between the shards -- still well-formed -- and the fleet restored,
    answering with the wrong rows.  The maps are now under the
    container's metadata checksum like every token image's state."""
    dst = _fleet_copy(fleet_image, tmp_path)
    meta, _ = read_image(dst)
    maps = meta["root_maps"]
    maps[0][0], maps[1][0] = maps[1][0], maps[0][0]
    edited = zlib.compress(pickle.dumps(meta, protocol=4), 6)

    def splice(raw):
        # a careful editor: lengths fixed up, content hashes left alone
        fields = list(_HEADER.unpack_from(raw))
        old_len, fields[2] = fields[2], len(edited)
        fields[4] += len(edited) - old_len
        return _HEADER.pack(*fields) + edited + bytes(raw[_H + old_len:])
    _mutate(dst, dst, splice)
    with pytest.raises(ImageError, match="checksum"):
        GhostDB.restore(dst, verify=verify)


@pytest.mark.parametrize("verify", [False, True])
def test_fleet_manifest_any_flipped_byte_is_rejected(fleet_image, tmp_path,
                                                     verify):
    dst = _fleet_copy(fleet_image, tmp_path)
    pristine = open(dst, "rb").read()
    for off in range(len(pristine)):
        _mutate(dst, dst, lambda raw: _flip(raw, off))
        with pytest.raises(ImageError):
            GhostDB.restore(dst, verify=verify)
        with open(dst, "wb") as fh:
            fh.write(pristine)
    GhostDB.restore(dst, verify=verify)       # pristine again: restores


def test_fleet_missing_shard_image(fleet_image, tmp_path):
    dst = _fleet_copy(fleet_image, tmp_path)
    os.remove(f"{dst}.shard0")
    with pytest.raises(PersistError):
        GhostDB.restore(dst)


def test_fleet_corrupt_shard_image(fleet_image, tmp_path):
    dst = _fleet_copy(fleet_image, tmp_path)
    raw = bytearray(open(f"{dst}.shard1", "rb").read())
    raw[_H + 5] ^= 0xFF                      # meta byte of shard 1
    open(f"{dst}.shard1", "wb").write(bytes(raw))
    with pytest.raises(PersistError):
        GhostDB.restore(dst)


def test_pristine_fleet_still_restores(fleet_image):
    fleet = GhostDB.restore(fleet_image, verify=True)
    for sql in PROBES:
        assert_oracle(fleet, sql)
