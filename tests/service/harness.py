"""Test harness: build databases and serve them to a wire client.

Lives outside ``conftest.py`` so test modules can import the helpers
directly (the repo's test tree is packageless).
"""

from contextlib import asynccontextmanager

from repro.service.client import AsyncGhostClient
from repro.service.server import GhostServer
from repro.workloads.synthetic import SyntheticConfig, build_synthetic


def build_db(scale: float = 0.0005):
    """A fresh, deterministic synthetic database (tiny by default)."""
    return build_synthetic(SyntheticConfig(scale=scale,
                                           full_indexing=True))


@asynccontextmanager
async def connected(db):
    """Serve ``db`` on the running event loop and connect one
    :class:`AsyncGhostClient` to it; yields ``(server, client)``."""
    async with GhostServer(db) as server:
        async with await AsyncGhostClient.connect(
                server.host, server.port) as client:
            yield server, client
