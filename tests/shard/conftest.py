"""Shared fixtures for the shard differential suite: one fleet per
size in ``SHARD_COUNTS``, each compared with a single-token twin."""

import pytest

from repro.workloads.synthetic import SyntheticConfig, build_synthetic

from shard_helpers import SCALE, SHARD_COUNTS


@pytest.fixture(scope="module")
def oracle():
    """The single-token twin every fleet is compared against."""
    return build_synthetic(SyntheticConfig(scale=SCALE,
                                           full_indexing=True))


@pytest.fixture(scope="module", params=SHARD_COUNTS,
                ids=lambda n: f"shards{n}")
def fleet(request):
    """An identically built fleet at each shard count under test."""
    return build_synthetic(SyntheticConfig(scale=SCALE,
                                           full_indexing=True),
                           shards=request.param)
