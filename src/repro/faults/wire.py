"""Wire-layer fault injection: drops, truncated frames, stalled peers.

Attached to a :class:`~repro.service.server.GhostServer` as
``wire_faults``; the server passes it to
:func:`repro.service.protocol.write_frame` on every response, so the
injector can drop the connection instead of answering, write half a
frame and hang up, or stall long enough for the client's
``timeout_s`` to fire.  All three look identical to a client: the
request may or may not have been applied -- exactly the ambiguity the
idempotency-key retry contract resolves.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Iterable, Optional


class WireFaults:
    """Ordinal-named frame-fault schedule for one server.

    The outbound response frames whose ordinals (0-based, counted
    across the server's connections) are in ``drop`` / ``truncate`` /
    ``stall`` are dropped / truncated / stalled by ``stall_s`` seconds.
    Counters (``frames``, ``dropped``, ``truncated``, ``stalled``)
    record the injections.
    """

    def __init__(self, drop: Iterable[int] = (),
                 truncate: Iterable[int] = (),
                 stall: Iterable[int] = (),
                 stall_s: float = 0.5):
        self.drop = frozenset(drop)
        self.truncate = frozenset(truncate)
        self.stall = frozenset(stall)
        self.stall_s = stall_s
        self.frames = 0
        self.dropped = 0
        self.truncated = 0
        self.stalled = 0

    async def __call__(self, writer: asyncio.StreamWriter,
                       frame: bytes) -> Optional[bytes]:
        n = self.frames
        self.frames += 1
        if n in self.drop:
            self.dropped += 1
            writer.close()
            return None
        if n in self.truncate:
            self.truncated += 1
            writer.write(frame[:max(1, len(frame) // 2)])
            with contextlib.suppress(Exception):
                await writer.drain()
            writer.close()
            return None
        if n in self.stall:
            self.stalled += 1
            await asyncio.sleep(self.stall_s)
        return frame
