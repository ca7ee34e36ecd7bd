"""Unit tests for the loader and the secure catalog."""

import pytest

from repro.core.loader import Loader
from repro.errors import PlanError, StorageError
from repro.hardware.token import SecureToken
from repro.predicate import Predicate
from repro.schema.ddl import schema_from_sql
from repro.untrusted.engine import UntrustedEngine

DDL = [
    "CREATE TABLE Root (id int, fk int HIDDEN REFERENCES Mid, "
    "v int, h int HIDDEN)",
    "CREATE TABLE Mid (id int, fk int HIDDEN REFERENCES Leaf, "
    "v int, h int HIDDEN)",
    "CREATE TABLE Leaf (id int, v int, h int HIDDEN)",
]


def make_loader(indexed=None):
    schema = schema_from_sql(DDL)
    token = SecureToken()
    untrusted = UntrustedEngine(schema)
    return Loader(schema, token, untrusted, indexed), token, untrusted


def load_small(loader):
    loader.add_rows("Leaf", [(i, i % 3) for i in range(4)])
    loader.add_rows("Mid", [(i % 4, i, i % 2) for i in range(8)])
    loader.add_rows("Root", [(i % 8, i, i % 5) for i in range(32)])


def test_build_produces_catalog():
    loader, token, untrusted = make_loader()
    load_small(loader)
    catalog = loader.build()
    assert catalog.n_rows("Root") == 32
    assert untrusted.n_rows("Root") == 32
    assert catalog.image("Root").heap is not None
    assert ("Root", "h") in catalog.attr_indexes


def test_wrong_row_width_rejected():
    loader, *_ = make_loader()
    with pytest.raises(StorageError):
        loader.add_rows("Leaf", [(1, 2, 3)])


def test_referential_integrity_enforced():
    loader, *_ = make_loader()
    loader.add_rows("Leaf", [(0, 0)])
    loader.add_rows("Mid", [(5, 0, 0)])  # fk 5 -> only 1 Leaf row
    loader.add_rows("Root", [(0, 0, 0)])
    with pytest.raises(StorageError):
        loader.build()


def test_double_build_rejected():
    loader, *_ = make_loader()
    load_small(loader)
    loader.build()
    with pytest.raises(StorageError):
        loader.build()


def test_skt_holds_transitive_descendants():
    loader, *_ = make_loader()
    load_small(loader)
    catalog = loader.build()
    skt = catalog.skt("Root")
    assert set(skt.columns) == {"Mid", "Leaf"}
    mid_pos, leaf_pos = skt.column_positions(["Mid", "Leaf"])
    for root_id in range(32):
        row = skt.get(root_id)
        mid_id = root_id % 8
        assert row[mid_pos] == mid_id
        assert row[leaf_pos] == mid_id % 4  # Mid.fk = id % 4


def test_climbing_index_reaches_root():
    loader, *_ = make_loader()
    load_small(loader)
    catalog = loader.build()
    ci = catalog.attr_indexes[("Leaf", "h")]
    assert ci.levels == ["Leaf", "Mid", "Root"]
    (view,) = ci.lookup(Predicate("=", 0), "Root")
    # Leaf ids with h=0: {0, 3}; Mids pointing there: {0, 3, 4, 7};
    # Roots pointing at those Mids
    expected = sorted(i for i in range(32) if (i % 8) % 4 in (0, 3))
    assert list(view.iterate()) == expected


def test_id_index_only_for_non_root():
    loader, *_ = make_loader()
    load_small(loader)
    catalog = loader.build()
    assert "Mid" in catalog.id_indexes
    assert "Leaf" in catalog.id_indexes
    assert "Root" not in catalog.id_indexes


def test_indexed_columns_restriction():
    loader, *_ = make_loader(indexed={"Leaf": ("h",)})
    load_small(loader)
    catalog = loader.build()
    assert ("Leaf", "h") in catalog.attr_indexes
    assert ("Root", "h") not in catalog.attr_indexes
    with pytest.raises(PlanError):
        catalog.attr_index("Root", "h")


def test_catalog_errors():
    loader, *_ = make_loader()
    load_small(loader)
    catalog = loader.build()
    with pytest.raises(PlanError):
        catalog.image("Nope")
    with pytest.raises(PlanError):
        catalog.skt("Leaf")  # leaf tables have no SKT
    with pytest.raises(PlanError):
        catalog.id_index("Root")


def test_table_with_no_hidden_attrs_has_no_heap():
    schema = schema_from_sql([
        "CREATE TABLE R (id int, fk int HIDDEN REFERENCES S, v int)",
        "CREATE TABLE S (id int, v int)",
    ])
    token = SecureToken()
    loader = Loader(schema, token, UntrustedEngine(schema))
    loader.add_rows("S", [(1,), (2,)])
    loader.add_rows("R", [(0, 5), (1, 6)])
    catalog = loader.build()
    assert catalog.image("S").heap is None
    # fk is hidden but lives in the SKT, not the image
    assert catalog.image("R").heap is None
    assert catalog.skt("R").get(0) == (0,)


def test_storage_report_components():
    loader, *_ = make_loader()
    load_small(loader)
    catalog = loader.build()
    report = catalog.storage_report()
    assert report["skts"] > 0
    assert report["attr_indexes"] > 0
    assert report["id_indexes"] > 0
    assert report["hidden_images"] > 0
