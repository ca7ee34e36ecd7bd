"""Estimates speak the ledger's language, label by label.

``CostModel.estimate`` returns the cells the executor's ledger would
hold: ``(label, component, unit price) -> (operations, bytes)`` with
fractional counts.  On the Figure 10 and Figure 12 grids this checks

* every cell of every feasible candidate sits under one of the
  executor's operator labels, at a ``(component, price)`` the token's
  own ledger holds after running the same statements;
* for the auto plan, each label's q-error ``max(est/meas, meas/est)``
  stays at or under the bound it reached when estimates became cells
  (labels under 50 us on both sides are ignored).

The one exception is sV = 0.001: the answer is empty and every label
but Vis misses (Vis -- the announcement and the request set -- is
priced exactly everywhere).  Merge is priced for the hidden
selection's whole anchor-level run, which the executor reads lazily
and abandons once the other side of the intersection is empty; SJoin,
Store and Project are priced for the ~10 anchors the statistics
expect, and none survive.
"""

from itertools import takewhile

import pytest

from repro.bench.experiments import build_bench_synthetic
from repro.core.merge import MERGE_LABEL
from repro.core.operators import (BLOOM_LABEL, CI_LABEL, PROJECT_LABEL,
                                  SJOIN_LABEL, STORE_LABEL, VIS_LABEL)
from repro.core.sort import SORT_LABEL
from repro.workloads.queries import query_q, query_q_with_hidden_projection

SV_GRID = (0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.5, 0.9)
WORKLOADS = {"fig10": query_q, "fig12": query_q_with_hidden_projection}

EXECUTOR_LABELS = {VIS_LABEL, CI_LABEL, MERGE_LABEL, SJOIN_LABEL,
                   BLOOM_LABEL, STORE_LABEL, PROJECT_LABEL, SORT_LABEL}

#: labels whose estimate and measurement both stay under this are noise
FLOOR_S = 50e-6

#: the auto plan's worst per-label q-error over both grids, sV 0.001
#: aside (measured on ``build_bench_synthetic()``): Project's 3.07 is
#: the fig12 hidden projection at sV 0.01, Merge's 3.05 the Cross
#: intersection at sV 0.05; Vis is exact
MAX_QERROR = {VIS_LABEL: 1.0, CI_LABEL: 1.41, MERGE_LABEL: 3.05,
              SJOIN_LABEL: 1.16, STORE_LABEL: 1.07, PROJECT_LABEL: 3.07}

#: grid points where the estimate misses on every label but Vis
#: (module doc)
EXCEPTIONS = {0.001}


@pytest.fixture(scope="module")
def bench_db():
    return build_bench_synthetic()


def qerror(est: float, meas: float) -> float:
    if est and meas:
        return max(est / meas, meas / est)
    return float("inf")


@pytest.fixture(scope="module")
def auto_runs(bench_db):
    """``{(workload, sv): (plan, stats)}`` for every auto plan."""
    return {(name, sv): (bench_db.plan_query(sql_of(sv)),
                         bench_db.execute(sql_of(sv)).stats)
            for name, sql_of in WORKLOADS.items() for sv in SV_GRID}


def test_cells_use_the_executors_labels_and_prices(bench_db, auto_runs):
    ledger = bench_db.token.ledger.snapshot()
    charged = {(component, price) for _, component, price in ledger.cells}
    checked = 0
    for plan, _ in auto_runs.values():
        for cand in plan.cost_report.candidates:
            if cand.estimate.infeasible:
                continue
            assert cand.estimate.cells.cells, cand.describe()
            for label, component, price in cand.estimate.cells.cells:
                assert label in EXECUTOR_LABELS, (cand.describe(), label)
                assert (component, price) in charged, (component, price)
                checked += 1
    assert checked > len(auto_runs) * 8


def test_auto_plan_qerror_per_label(auto_runs):
    for (name, sv), (plan, stats) in auto_runs.items():
        est = plan.cost_report.chosen.estimate.cells.by_label_s()
        meas = stats.by_operator
        errors = {label: qerror(est.get(label, 0.0), meas.get(label, 0.0))
                  for label in set(est) | set(meas)
                  if max(est.get(label, 0.0), meas.get(label, 0.0)) >= FLOOR_S}
        if sv in EXCEPTIONS:
            # still exceptional: an empty answer, and no label but Vis
            # within bound -- a fix of the over-estimate lands here first
            assert stats.result_rows == 0
            assert errors[VIS_LABEL] <= MAX_QERROR[VIS_LABEL], errors
            assert all(errors[label] > bound
                       for label, bound in MAX_QERROR.items()
                       if label != VIS_LABEL), errors
            continue
        for label, error in errors.items():
            assert error <= MAX_QERROR[label], (
                f"{name} sV {sv}: {label} est {est.get(label, 0.0):.6f}s "
                f"vs measured {meas.get(label, 0.0):.6f}s (q {error:.2f})")


def test_explain_analyze_names_the_label_that_misses(bench_db):
    """EXPLAIN ANALYZE at fig10 sV 0.001 prints the per-label lines
    under the chosen candidate: Merge carries the largest error."""
    text = bench_db.explain(query_q(0.001), analyze=True).splitlines()
    at = next(i for i, ln in enumerate(text) if ln.endswith("<- chosen"))
    block = []
    for ln in takewhile(lambda ln: ln.startswith("      "), text[at + 1:]):
        label, _, est, _, _, meas = ln.split()[:6]
        block.append((label, float(est[:-1]), float(meas[:-1])))
    assert [b[0] for b in block] == [
        VIS_LABEL, CI_LABEL, MERGE_LABEL, SJOIN_LABEL, STORE_LABEL,
        PROJECT_LABEL]
    worst = max(block, key=lambda b: b[1] - b[2])
    assert worst[0] == MERGE_LABEL
