"""Query templates for the paper's experiments.

``Query Q`` (section 6.4): a Visible selection on T1, a Hidden
selection on T12 (sH fixed at 0.1) and joins up to the root::

    SELECT T0.id, T1.id, T12.id, T1.v1
    FROM   T0, T1, T12
    WHERE  T0.fk1 = T1.id AND T1.fk12 = T12.id
      AND  T1.v1 < {k} AND T12.h2 = {h}
"""

from __future__ import annotations

from repro.workloads.medical import sv_to_age_bound
from repro.workloads.synthetic import sv_to_v1_bound

H_VALUE = 2  # h2 = 2 selects exactly 10% (values cycle 0..9)

#: Query Q's joins and selections, its two constants as ``?``
#: placeholders: ``(v1 bound, h2 value)``
_Q_FROM_WHERE = ("FROM T0, T1, T12 "
                 "WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id "
                 "AND T1.v1 < ? AND T12.h2 = ?")

#: Query Q (Figure 10) as a prepared template
TEMPLATE_FIG10 = "SELECT T0.id, T1.id, T12.id, T1.v1 " + _Q_FROM_WHERE

#: Query Q with a hidden projection (Figure 12) as a prepared template
TEMPLATE_FIG12 = ("SELECT T0.id, T1.id, T12.id, T1.v1, T1.h1 "
                  + _Q_FROM_WHERE)


def _fill(template: str, sv: float) -> str:
    """``template`` with Query Q's constants at Visible selectivity
    ``sv``."""
    return template.replace("?", "{}").format(sv_to_v1_bound(sv), H_VALUE)


def query_q(sv: float) -> str:
    """The paper's Query Q at Visible selectivity ``sv``."""
    return _fill(TEMPLATE_FIG10, sv)


def query_q_with_hidden_projection(sv: float) -> str:
    """Query Q augmented with a projection on T1.h1 (Figures 12/13)."""
    return _fill(TEMPLATE_FIG12, sv)


def query_q_projections(sv: float, n_visible_attrs: int) -> str:
    """Query Q projecting 1-3 visible attributes (Figure 14).

    The attributes come (mostly) from T12, which carries no visible
    selection, so Untrusted must ship the *whole* visible column --
    exactly the irrelevant-data flow whose transfer cost Figure 14
    measures against the channel throughput.
    """
    extra = ["T12.v1", "T12.v2", "T1.v1"][:n_visible_attrs]
    cols = ", ".join(["T0.id", "T1.id", "T12.id"] + extra)
    return _fill(f"SELECT {cols} " + _Q_FROM_WHERE, sv)


def medical_query_q(sv: float) -> str:
    """Query Q transposed onto the medical schema (Figure 16):
    Measurements as T0, Patients as T1, Doctors as T12."""
    k = sv_to_age_bound(sv)
    return (
        "SELECT Measurements.id, Patients.id, Doctors.id, "
        "Patients.first_name "
        "FROM Measurements, Patients, Doctors "
        "WHERE Measurements.patient_id = Patients.id "
        "AND Patients.doctor_id = Doctors.id "
        f"AND Patients.age < {k} AND Doctors.name = 'surname3'"
    )
