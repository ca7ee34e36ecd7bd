"""The wire protocol: length-prefixed JSON frames.

Every message -- request or response -- is one *frame*::

    +----------------+----------------------------------+
    | 4 bytes, !I BE |  UTF-8 JSON payload (<= 16 MiB)  |
    +----------------+----------------------------------+

Requests carry ``{"id": <client-chosen int>, "op": <operation>, ...}``;
responses echo the ``id`` so a client may pipeline many requests over
one connection and match responses out of order.  Operations:

========== ==========================================================
op          payload fields
========== ==========================================================
execute     ``sql`` (any supported statement), optional ``params``,
            ``ikey`` (a DML response is recorded under it)
prepare     SELECT ``sql`` with ``?`` placeholders -> ``{"stmt": id}``:
            the session's id for its cached statement (one text, one id)
exec_stmt   ``stmt`` (a prepare'd id), optional ``params``; an id whose
            statement the session's LRU evicted is an error that says
            to prepare it again
compact     ``table``, optional ``max_steps``
stats       server counters (admission, plan cache, generations)
ping        liveness probe
========== ==========================================================

Responses are ``{"id": ..., "ok": true, "kind": ..., ...}`` or
``{"id": ..., "ok": false, "error": str, "error_type": str}``.  Row
responses carry ``columns``/``rows`` plus the statement's pinned
``generations`` map and a compact simulated-cost ``stats`` block.

Threat model: the server process plays the *untrusted terminal* role
of the paper -- it co-hosts the token simulator exactly like the PC
hosting the USB key.  Frames therefore only ever carry data the
GhostDB security argument already treats as public: statement texts
(whose hidden INSERT literals the engine redacts to ``public_text``
before anything is announced on the audited channel) and result rows,
which in a real deployment would be end-to-end encrypted between the
client and the token.  ``db.audit_outbound()`` remains the ground
truth of what leaves the secure perimeter; the service adds no new
outbound message kinds.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Optional

from repro.errors import ChannelError

#: frame length prefix: one unsigned 32-bit big-endian integer
LENGTH_PREFIX = struct.Struct("!I")

#: hard cap on one frame's payload; a peer announcing more is corrupt
#: (or hostile) and the connection is dropped
MAX_FRAME_BYTES = 16 * 1024 * 1024


class FrameError(ChannelError):
    """A malformed, oversized or truncated wire frame."""


def encode_frame(payload: dict) -> bytes:
    """One payload dict as a length-prefixed JSON frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return LENGTH_PREFIX.pack(len(body)) + body


def decode_frame(body: bytes) -> dict:
    """The payload dict of one frame body (sans length prefix)."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame: {exc}") from None
    if not isinstance(payload, dict):
        raise FrameError("frame payload must be a JSON object")
    return payload


async def read_frame(reader) -> Optional[dict]:
    """Read one frame from an asyncio stream; ``None`` on clean EOF."""
    try:
        prefix = await reader.readexactly(LENGTH_PREFIX.size)
        (length,) = LENGTH_PREFIX.unpack(prefix)
        if length > MAX_FRAME_BYTES:
            raise FrameError(
                f"peer announced a {length}-byte frame "
                f"(limit {MAX_FRAME_BYTES})"
            )
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise FrameError("connection closed mid-frame") from None
        return None
    except (ConnectionError, OSError):
        return None
    return decode_frame(body)


async def write_frame(writer, payload: dict, fault=None) -> None:
    """Write one frame to an asyncio stream and drain.

    ``fault`` is an optional async injector (see
    :class:`repro.faults.wire.WireFaults`): it receives the encoded
    frame and may drop it (return ``None``), truncate-and-hang-up, or
    stall before returning it for normal delivery.  ``None`` (the
    default, production) writes the frame untouched.
    """
    frame = encode_frame(payload)
    if fault is not None:
        frame = await fault(writer, frame)
        if frame is None:
            return
    writer.write(frame)
    await writer.drain()
