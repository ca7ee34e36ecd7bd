"""Differential harness for the cost-based strategy optimizer.

For a grid of visible selectivities and two table scales, *every*
candidate strategy (Pre/Post/Post-Select/NoFilter, Crossed and
unCrossed) is executed and measured, alongside the optimizer's
no-knobs auto plan.  Acceptance (PR-3):

* every strategy -- and the auto plan -- returns rows identical to the
  reference oracle;
* on the Fig. 10 and Fig. 12 workloads the auto plan's simulated time
  is within 25% of the best hand-picked strategy on every grid point.
"""

from itertools import takewhile

import pytest

from repro.bench.experiments import ALL_STRATEGIES, optimizer_differential
from repro.core.costmodel import LABELS
from repro.workloads.queries import query_q, query_q_with_hidden_projection

#: the paper's x-axis plus the beyond-crossover tail
SV_GRID = (0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.5, 0.9)

#: acceptance bound: auto <= 1.25 * best hand-picked, every point
MAX_RATIO = 1.25


def _assert_within_bound(rows, workload):
    for row in rows:
        assert row["auto_ratio"] <= MAX_RATIO, (
            f"{workload} sv={row['sv']}: auto plan ({row['auto_pick']}, "
            f"{row['Auto']:.4f}s) is {row['auto_ratio']:.2f}x the best "
            f"hand-picked strategy ({row['best']:.4f}s)"
        )


def test_differential_fig10_workload(db):
    """Fig. 10 query (visible sel on T1, hidden sel on T12): all
    strategies oracle-identical, auto within 25% of best, everywhere."""
    rows = optimizer_differential(db, query_q, SV_GRID, check_rows=True)
    _assert_within_bound(rows, "fig10")


def test_differential_fig12_workload(db):
    """Fig. 12 query (adds a hidden projection T1.h1)."""
    rows = optimizer_differential(db, query_q_with_hidden_projection,
                                  SV_GRID, check_rows=True)
    _assert_within_bound(rows, "fig12")


def test_differential_small_tables(tiny_db):
    """Same sweep on 4x smaller tables: the decision surface shifts
    with table sizes and the optimizer must follow it."""
    rows = optimizer_differential(tiny_db, query_q,
                                  (0.001, 0.01, 0.05, 0.1, 0.5),
                                  check_rows=True)
    _assert_within_bound(rows, "fig10-small")


def test_auto_tracks_the_crossover(db):
    """The optimizer reproduces the paper's crossover: Pre-Filter at
    high selectivity, postponement at low selectivity."""
    low = db.plan_query(query_q(0.005))
    high = db.plan_query(query_q(0.5))
    assert low.vis_plans["T1"].strategy.value == "pre"
    assert high.vis_plans["T1"].strategy.value in ("post", "nofilter")


def test_every_candidate_is_priced(db):
    """The plan's cost report lists the full candidate space with
    non-trivial estimates: every candidate charges ledger cells."""
    plan = db.plan_query(query_q(0.05))
    report = plan.cost_report
    assert report is not None
    assert len(report.candidates) == len(ALL_STRATEGIES)
    assert len([c for c in report.candidates if c.chosen]) == 1
    for cand in report.candidates:
        assert cand.estimate.total_us > 0
        assert cand.estimate.cells.cells
    chosen = report.chosen
    assert chosen.estimate.total_us == min(
        c.estimate.total_us for c in report.candidates
    )


def test_estimates_track_measurements(db):
    """Estimated simulated times agree with measurements within 3x for
    every candidate at the crossover point (the model need not be
    exact -- it must rank correctly; this guards against gross drift),
    and ``EXPLAIN ANALYZE`` renders both columns, plus one
    ``est / measured`` line per operator label under the chosen
    candidate."""
    sql = query_q(0.1)
    plan = db.plan_query(sql)
    for cand in plan.cost_report.candidates:
        (table, choice), = cand.assignment
        measured = db.execute(
            sql, vis_strategy=choice.strategy, cross=choice.cross
        ).stats.total_s
        ratio = cand.estimate.total_s / measured
        assert 1 / 3 <= ratio <= 3, (
            f"{cand.describe()}: est {cand.estimate.total_s:.4f}s vs "
            f"measured {measured:.4f}s (ratio {ratio:.2f})"
        )
    text = db.explain(sql, analyze=True).splitlines()
    lines = [ln for ln in text if "=" in ln and "est " in ln]
    assert len(lines) == len(ALL_STRATEGIES)
    for ln in lines:
        assert "measured" in ln
    # the per-label block follows the chosen line: the labels the
    # estimate or the measurement charged, each with both figures
    estimated = plan.cost_report.chosen.estimate.cells.by_label_s()
    measured = db.execute(sql).stats.by_operator
    at = next(i for i, ln in enumerate(text) if ln.endswith("<- chosen"))
    block = list(takewhile(lambda ln: ln.startswith("      "),
                           text[at + 1:]))
    assert [ln.split()[0] for ln in block] == [
        label for label in LABELS if label in estimated or label in measured]
    for ln in block:
        label, _, est, _, _, meas = ln.split()[:6]
        assert est == f"{estimated.get(label, 0.0):.6f}s"
        assert meas == f"{measured.get(label, 0.0):.6f}s"


def test_planning_costs_no_round_trips(db):
    """Stats-based planning sends nothing: the selectivity probes of
    the previous planner are gone."""
    ch = db.token.channel.stats
    before = ch.messages_to_untrusted
    db.plan_query(query_q(0.2))
    assert ch.messages_to_untrusted == before


def test_forced_strategy_still_forces(db):
    """Explicit knobs bypass the optimizer entirely."""
    plan = db.plan_query(query_q(0.001), vis_strategy="nofilter",
                         cross=False)
    assert plan.cost_report is None
    assert plan.vis_plans["T1"].strategy.value == "nofilter"
    assert not plan.vis_plans["T1"].cross


def test_multi_table_assignment_enumeration(db):
    """Two visible selections: the optimizer enumerates the full cross
    product of per-table choices and the pick matches the oracle."""
    from repro.workloads.synthetic import sv_to_v1_bound

    sql = ("SELECT T0.id, T1.id FROM T0, T1, T12 "
           "WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id "
           f"AND T1.v1 < {sv_to_v1_bound(0.05)} "
           f"AND T12.v1 < {sv_to_v1_bound(0.3)} AND T12.h1 = 2")
    plan = db.plan_query(sql)
    report = plan.cost_report
    # T1: 4 strategies x {cross, no-cross}; T12: hidden sel is on T12
    # itself so Cross is available there too
    assert len(report.candidates) == 64
    assert set(dict(report.chosen.assignment)) == {"T1", "T12"}
    result = db.execute(sql)
    _, expected = db.reference_query(sql)
    assert sorted(result.rows) == sorted(expected)


def three_selection_query(sv_t1, sv_t12, sv_t11):
    """Query Q with visible selections on three non-anchor tables, each
    with Cross available (hidden selections on T12 and T11 sit below
    all three): 8 x 8 x 8 = 512 assignments."""
    from repro.workloads.synthetic import sv_to_v1_bound

    return ("SELECT T0.id, T1.id, T1.v1 FROM T0, T1, T11, T12 "
            "WHERE T0.fk1 = T1.id AND T1.fk11 = T11.id "
            "AND T1.fk12 = T12.id "
            f"AND T1.v1 < {sv_to_v1_bound(sv_t1)} "
            f"AND T12.v1 < {sv_to_v1_bound(sv_t12)} "
            f"AND T11.v1 < {sv_to_v1_bound(sv_t11)} "
            "AND T12.h2 = 2 AND T11.h1 = 3")


@pytest.mark.parametrize("svs", [(0.5, 0.1, 0.1), (0.5, 0.5, 0.5),
                                 (0.9, 0.1, 0.5), (0.9, 0.5, 0.1),
                                 (0.9, 0.9, 0.9)])
def test_greedy_fallback_beyond_the_enumeration_ceiling(db, svs):
    """Past ``MAX_ASSIGNMENTS`` the planner fixes tables one at a time
    instead of pricing the cross product.  The report then carries the
    one assignment greedy arrived at; its rows match the oracle and its
    *measured* time is within the differential bound of the best of the
    eight uniform hand-picked strategies.

    The grid is the part of the selectivity space with non-empty
    answers.  Where the hidden selections intersect to nothing and
    every plan costs a few simulated milliseconds, the bound is missed
    at 3 of the 64 points of (0.01, 0.1, 0.5, 0.9)^3 -- at one of them
    by the exhaustive enumeration as well (CHANGES.md, PR 19)."""
    from repro.core.planner import MAX_ASSIGNMENTS

    sql = three_selection_query(*svs)
    report = db.plan_query(sql).cost_report
    assert 8 ** 3 > MAX_ASSIGNMENTS
    assert len(report.candidates) == 1 and report.chosen is not None
    assert set(dict(report.chosen.assignment)) == {"T1", "T11", "T12"}
    result = db.execute(sql)
    _, expected = db.reference_query(sql)
    assert expected and sorted(result.rows) == sorted(expected)
    uniform = []
    for strategy, cross in ALL_STRATEGIES:
        forced = db.execute(sql, vis_strategy=strategy, cross=cross)
        assert sorted(forced.rows) == sorted(expected)
        uniform.append(forced.stats.total_s)
    assert result.stats.total_s <= MAX_RATIO * min(uniform)


@pytest.fixture(scope="module")
def mutated_db(db):
    """The module database after incremental DML: appended rows reach
    the climbing-index delta logs and fk deltas, deletes leave
    tombstones -- the cost model's delta-log terms become non-zero."""
    db.execute("INSERT INTO T1 VALUES (0, 1, 40, 7, 2)")
    db.execute("INSERT INTO T0 VALUES (2000, 3, 40, 8, 1)")
    db.execute("DELETE FROM T0 WHERE v1 = 999")
    return db


@pytest.mark.parametrize("strategy,cross", ALL_STRATEGIES)
def test_each_strategy_matches_oracle_after_dml(mutated_db, strategy,
                                                cross):
    """Strategy equivalence must survive incremental DML (delta logs,
    fk deltas, tombstones all in play)."""
    sql = query_q(0.05)
    result = mutated_db.execute(sql, vis_strategy=strategy, cross=cross)
    _, expected = mutated_db.reference_query(sql)
    assert sorted(result.rows) == sorted(expected)


def test_auto_within_bound_after_dml(mutated_db):
    """The differential bound holds against the mutated database too."""
    rows = optimizer_differential(mutated_db, query_q,
                                  (0.01, 0.1, 0.5), check_rows=True)
    _assert_within_bound(rows, "fig10-after-dml")
