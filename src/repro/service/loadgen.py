"""Query Q (Figures 10 and 12) as service-side prepared templates.

The two texts take ``(v1 bound, h2 value)`` parameters, e.g.
``(sv_to_v1_bound(sv), H_VALUE)`` from :mod:`repro.workloads`.  The
module keeps its name because ``perfbench/workloads.py`` imports the
templates by this path; the benchmark's ``service_short`` workload is
the one service load generator.
"""

#: Query Q (Figure 10) as a service-side prepared template
TEMPLATE_FIG10 = (
    "SELECT T0.id, T1.id, T12.id, T1.v1 "
    "FROM T0, T1, T12 "
    "WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id "
    "AND T1.v1 < ? AND T12.h2 = ?"
)

#: Query Q with a hidden projection (Figure 12) as a template
TEMPLATE_FIG12 = (
    "SELECT T0.id, T1.id, T12.id, T1.v1, T1.h1 "
    "FROM T0, T1, T12 "
    "WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id "
    "AND T1.v1 < ? AND T12.h2 = ?"
)
