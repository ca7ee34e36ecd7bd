"""The cost model prices what the executor sends Untrusted, exactly.

``CostModel.estimate`` prices the statement's announcement (its text,
one message) and walks the same request set the executor issues
(``vis_tables`` / ``vis_request``), so its outbound bytes -- for every
candidate EXPLAIN lists -- are what a run really sends: the text's
length plus the requests' ``wire_size()``.  Every comparison is ``==``.
"""

from repro.core.costmodel import Choice
from repro.core.operators import vis_request, vis_tables
from repro.workloads.queries import query_q, query_q_with_hidden_projection

SV_GRID = (0.001, 0.01, 0.05, 0.2, 0.5)

KNOBS = [{}] + [
    {"vis_strategy": strategy, "cross": cross}
    for strategy in ("pre", "post", "post-select", "nofilter")
    for cross in (False, True)
]


def estimates(db, plan):
    """The plan's estimate(s): every EXPLAIN candidate of a cost-based
    plan, else the forced assignment priced the same way."""
    if plan.cost_report is not None:
        return [c.estimate for c in plan.cost_report.candidates]
    bound = plan.bound
    assignment = tuple(sorted(
        (t, Choice(vp.strategy, vp.cross))
        for t, vp in plan.vis_plans.items() if t != bound.anchor))
    return [db.planner.cost_model.estimate(bound, assignment,
                                           plan.projection_mode)]


def test_estimate_prices_the_requests_it_sends(db):
    checked = 0
    for sv in SV_GRID:
        for sql_of in (query_q, query_q_with_hidden_projection):
            sql = sql_of(sv)
            for knobs in KNOBS:
                for projection in ("project", "project-nobf", "brute-force"):
                    plan = db.plan_query(sql, projection=projection, **knobs)
                    bound = plan.bound
                    requests = sum(vis_request(bound, t).wire_size()
                                   for t in vis_tables(bound))
                    sent = db.execute(sql, projection=projection,
                                      **knobs).stats.bytes_to_untrusted
                    assert sent == max(1, len(bound.sql)) + requests
                    for estimate in estimates(db, plan):
                        assert estimate.bytes_to_untrusted == sent
                        checked += 1
    assert checked > len(SV_GRID) * 2 * len(KNOBS) * 3
