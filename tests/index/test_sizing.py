"""Tests for the Fig.-7 index sizing model (shape properties)."""

import pytest

from repro.errors import SchemaError
from repro.index.sizing import IndexSizingModel, TableSpec


def synthetic_model():
    """The paper's synthetic schema at full 10M-tuple scale."""
    return IndexSizingModel([
        TableSpec("T0", 10_000_000, None, [10] * 5, [10] * 5),
        TableSpec("T1", 1_000_000, "T0", [10] * 5, [10] * 5),
        TableSpec("T2", 1_000_000, "T0", [10] * 5, [10] * 5),
        TableSpec("T11", 100_000, "T1", [10] * 5, [10] * 5),
        TableSpec("T12", 100_000, "T1", [10] * 5, [10] * 5),
    ])


def real_model():
    """The paper's medical schema (section 6.2)."""
    return IndexSizingModel([
        TableSpec("Measurements", 1_300_000, None, [10, 10, 100], []),
        TableSpec("Patients", 14_000, "Measurements",
                  [20, 2, 2, 20, 6], [20, 10, 50, 10, 4]),
        TableSpec("Drugs", 45, "Measurements", [60], [100]),
        TableSpec("Doctors", 4_500, "Patients", [20, 60], [20, 20]),
    ], attr_distinct=100_000)


REAL_INDEXED = {"Patients": 5, "Doctors": 2, "Drugs": 1, "Measurements": 0}


def test_tree_helpers():
    m = synthetic_model()
    assert m.root == "T0"
    assert sorted(m.descendants("T1")) == ["T11", "T12"]
    assert sorted(m.descendants("T0")) == ["T1", "T11", "T12", "T2"]
    assert m.ancestors("T12") == ["T1", "T0"]
    assert m.ancestors("T0") == []


def test_dbsize_constant_in_attr_count():
    m = synthetic_model()
    rows = m.figure7_rows()
    sizes = {r["DBSize"] for r in rows}
    assert len(sizes) == 1


def test_fig7_ordering_full_ge_basic():
    m = synthetic_model()
    for r in m.figure7_rows():
        assert r["FullIndex"] >= r["BasicIndex"]
        # the Full-over-Basic premium is small (paper: "the extra price
        # to pay to benefit from a complete indexation structure is low")
        assert r["FullIndex"] <= 1.15 * r["BasicIndex"]


def test_fig7_climbing_overhead_significant():
    """Paper: 'climbing indexes incur a significant overhead'
    (BasicIndex >> StarIndex once attributes are indexed)."""
    m = synthetic_model()
    r5 = m.figure7_rows([5])[0]
    assert r5["BasicIndex"] > 1.8 * r5["StarIndex"]


def test_fig7_join_below_star():
    m = synthetic_model()
    for r in m.figure7_rows([1, 2, 3, 4, 5]):
        assert r["JoinIndex"] < r["StarIndex"]


def test_fig7_indexes_grow_linearly():
    m = synthetic_model()
    rows = m.figure7_rows()
    deltas = [
        rows[i + 1]["FullIndex"] - rows[i]["FullIndex"]
        for i in range(len(rows) - 1)
    ]
    assert all(abs(d - deltas[0]) < 1e-6 for d in deltas)


def test_real_dataset_magnitudes_match_paper():
    """Section 6.3: Full=57, Basic=56, Star=36, Join=26, DB=169 (MB).

    We accept a 30% envelope: the paper's exact byte accounting is not
    published, only the scheme definitions.
    """
    sizes = real_model().real_dataset_sizes(REAL_INDEXED)
    paper = {"FullIndex": 57, "BasicIndex": 56, "StarIndex": 36,
             "JoinIndex": 26, "DBSize": 169}
    for key, expected in paper.items():
        assert sizes[key] == pytest.approx(expected, rel=0.35), key
    assert (sizes["FullIndex"] >= sizes["BasicIndex"]
            > sizes["StarIndex"] > sizes["JoinIndex"])


def test_invalid_schemas_rejected():
    with pytest.raises(SchemaError):
        IndexSizingModel([TableSpec("A", 10, "missing")])
    with pytest.raises(SchemaError):
        IndexSizingModel([TableSpec("A", 10), TableSpec("B", 10)])
    with pytest.raises(SchemaError):
        IndexSizingModel([TableSpec("A", 10), TableSpec("A", 10, "A")])
