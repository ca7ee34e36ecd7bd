"""Shared benchmark fixtures: the databases, built once per session,
and the golden-table check every figure's test goes through."""

import pytest

from repro.bench.experiments import DATABASES
from repro.bench.report import check_golden, run_table


@pytest.fixture(scope="session")
def synthetic_db():
    return DATABASES["syn"]()


@pytest.fixture(scope="session")
def medical_db():
    return DATABASES["med"]()


@pytest.fixture
def golden_table(request):
    """Recompute one registered table, compare it byte for byte with the
    committed ``results/`` file, and return its rows for the paper-claim
    assertions.  Nothing is written: ``python -m repro.bench.report`` is
    the only writer."""
    fixture_of = {"syn": "synthetic_db", "med": "medical_db"}

    def _check(name: str):
        rows, files = run_table(
            name, lambda kind: request.getfixturevalue(fixture_of[kind]))
        print("\n" + files[f"{name}.txt"], end="")
        check_golden(name, files)
        return rows

    return _check
