"""Wire-frame round trips, limits and EOF behavior."""

import asyncio
import struct

import pytest

from repro.service.protocol import (LENGTH_PREFIX, MAX_FRAME_BYTES,
                                    FrameError, decode_frame, encode_frame,
                                    read_frame)


def test_round_trip():
    payload = {"id": 7, "op": "execute", "sql": "SELECT T0.id FROM T0",
               "params": [1, 2.5, "x", None]}
    frame = encode_frame(payload)
    (length,) = LENGTH_PREFIX.unpack(frame[:4])
    assert length == len(frame) - 4
    assert decode_frame(frame[4:]) == payload


def test_non_object_payload_rejected():
    body = b"[1, 2, 3]"
    with pytest.raises(FrameError):
        decode_frame(body)
    with pytest.raises(FrameError):
        decode_frame(b"\xff\xfe garbage")


def test_oversized_announcement_rejected():
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(struct.pack("!I", MAX_FRAME_BYTES + 1))
        reader.feed_eof()
        with pytest.raises(FrameError):
            await read_frame(reader)

    asyncio.run(run())


def test_oversized_prefix_rejected_before_body_async():
    """A hostile 4-byte length prefix must be rejected *before* any
    body bytes are awaited: only the prefix is fed (no EOF), so a codec
    that tried to read the announced body first would hang here."""
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(struct.pack("!I", MAX_FRAME_BYTES + 1))
        with pytest.raises(FrameError):
            await asyncio.wait_for(read_frame(reader), timeout=5)

    asyncio.run(run())


def test_async_clean_eof_and_truncation():
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_eof()
        assert await read_frame(reader) is None

        reader = asyncio.StreamReader()
        frame = encode_frame({"id": 1, "op": "ping"})
        reader.feed_data(frame[: len(frame) - 2])   # cut mid-body
        reader.feed_eof()
        with pytest.raises(FrameError):
            await read_frame(reader)

    asyncio.run(run())
