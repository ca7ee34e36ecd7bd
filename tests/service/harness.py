"""Test harness: build databases and serve them for wire clients.

Lives outside ``conftest.py`` so test modules can import the helpers
directly (the repo's test tree is packageless).
"""

import asyncio
import threading
from contextlib import contextmanager

from repro.service.server import GhostServer
from repro.workloads.synthetic import SyntheticConfig, build_synthetic


def build_db(scale: float = 0.0005):
    """A fresh, deterministic synthetic database (tiny by default)."""
    return build_synthetic(SyntheticConfig(scale=scale,
                                           full_indexing=True))


@contextmanager
def serving(db):
    """Run a :class:`GhostServer` on a background event-loop thread.

    Lets the blocking ``GhostClient`` drive the server from the test's
    own thread; async tests may instead use ``async with GhostServer(db)``
    inside their own event loop.
    """
    loop = asyncio.new_event_loop()
    server = GhostServer(db)
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(30)
    try:
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(30)
        loop.close()
