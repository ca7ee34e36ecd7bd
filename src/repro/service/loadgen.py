"""Query Q (Figures 10 and 12) as service-side prepared templates.

The texts take ``(v1 bound, h2 value)`` parameters and live in
:mod:`repro.workloads.queries`; the names stay importable from here,
where ``perfbench/workloads.py`` (the ``service_short`` workload, the
one service load generator) imports them.
"""

from repro.workloads.queries import TEMPLATE_FIG10, TEMPLATE_FIG12

__all__ = ["TEMPLATE_FIG10", "TEMPLATE_FIG12"]
