"""Tests for the workload generators: exact selectivities, schema
shapes and the query templates."""

import pytest

from repro.workloads.medical import (
    MedicalConfig,
    SURNAMES,
    build_medical,
    sv_to_age_bound,
)
from repro.workloads.queries import (
    medical_query_q,
    query_q,
    query_q_projections,
    query_q_with_hidden_projection,
)
from repro.workloads.synthetic import (
    SyntheticConfig,
    build_synthetic,
    sv_to_v1_bound,
)


@pytest.fixture(scope="module")
def syn():
    return build_synthetic(SyntheticConfig(scale=0.001))


@pytest.fixture(scope="module")
def med():
    return build_medical(MedicalConfig(scale=0.01))


def test_synthetic_cardinality_ratios(syn):
    n = {t: syn.catalog.n_rows(t) for t in ("T0", "T1", "T2", "T11", "T12")}
    assert n["T0"] == 10 * n["T1"] == 10 * n["T2"]
    assert n["T1"] == 10 * n["T11"] == 10 * n["T12"]


def test_synthetic_visible_selectivity_exact(syn):
    """v1 < k must select exactly k/1000 of the rows."""
    n1 = syn.catalog.n_rows("T1")
    ids = syn.untrusted.select_ids("T1", [])
    assert len(ids) == n1
    from repro.predicate import Predicate
    for sv in (0.01, 0.1, 0.5):
        k = sv_to_v1_bound(sv)
        ids = syn.untrusted.select_ids("T1", [("v1", Predicate("<", k))])
        assert len(ids) == pytest.approx(sv * n1, abs=1)


def test_synthetic_hidden_selectivity_exact(syn):
    _, rows = syn.reference_query("SELECT T12.id FROM T12 WHERE T12.h2 = 2")
    assert len(rows) == pytest.approx(0.1 * syn.catalog.n_rows("T12"),
                                      abs=1)


def test_synthetic_determinism():
    a = build_synthetic(SyntheticConfig(scale=0.0005))
    b = build_synthetic(SyntheticConfig(scale=0.0005))
    qa = a.execute(query_q(0.1))
    qb = b.execute(query_q(0.1))
    assert qa.rows == qb.rows
    assert qa.stats == qb.stats


def test_medical_schema_matches_paper(med):
    schema = med.schema
    assert schema.root == "Measurements"
    assert schema.parent("Patients") == "Measurements"
    assert schema.parent("Doctors") == "Patients"
    assert schema.parent("Drugs") == "Measurements"
    patients = schema.table("Patients")
    hidden = {c.name for c in patients.hidden_columns}
    assert {"doctor_id", "name", "ssn", "address", "birthdate",
            "bodymassindex"} <= hidden
    visible = {c.name for c in patients.visible_columns}
    assert {"first_name", "age", "sexe", "city", "zipcode"} <= visible


def test_medical_fan_in_ratio(med):
    """Measurements/Patients ~ 92, the driver of Figure 16."""
    ratio = (med.catalog.n_rows("Measurements")
             / med.catalog.n_rows("Patients"))
    assert 80 < ratio < 105


def test_medical_surname_selectivity(med):
    _, rows = med.reference_query(
        "SELECT Doctors.id FROM Doctors WHERE Doctors.name = 'surname3'"
    )
    n = med.catalog.n_rows("Doctors")
    assert len(rows) == pytest.approx(n / len(SURNAMES), abs=1)


def test_query_templates_parse_and_run(syn):
    for sql in (query_q(0.1), query_q_with_hidden_projection(0.1),
                query_q_projections(0.1, 3)):
        result = syn.execute(sql)
        _, expected = syn.reference_query(sql)
        assert sorted(result.rows) == sorted(expected)


def test_medical_query_template(med):
    sql = medical_query_q(0.1)
    result = med.execute(sql)
    _, expected = med.reference_query(sql)
    assert sorted(result.rows) == sorted(expected)


def test_sv_bounds():
    assert sv_to_v1_bound(0.001) == 1
    assert sv_to_v1_bound(0.5) == 500
    assert sv_to_age_bound(0.1) == 10
