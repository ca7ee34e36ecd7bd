"""Fixtures: durable images of the mini database on disk, for the
suites that restore (or corrupt) a real image file."""

import pytest

from chaos import build_pc


@pytest.fixture(scope="session")
def single_image(tmp_path_factory):
    db = build_pc()
    path = str(tmp_path_factory.mktemp("images") / "single.img")
    db.snapshot(path)
    return path


@pytest.fixture(scope="session")
def fleet_image(tmp_path_factory):
    fleet = build_pc(shards=2)
    path = str(tmp_path_factory.mktemp("images") / "fleet.img")
    fleet.snapshot(path)
    return path
