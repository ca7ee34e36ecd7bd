"""The Vis request set: one request per visible table per statement.

What Secure asks Untrusted is a function of the bound statement alone
(``vis_tables`` / ``vis_request`` in ``core/operators.py``): every table
with a visible selection or a projected visible column is asked exactly
once, carrying its selection plus all of its projected visible columns,
whatever the strategy, the projection mode or the data.
"""

import pytest

from repro.core.operators import ExecContext, op_vis, vis_request, vis_tables
from repro.workloads.queries import (query_q, query_q_projections,
                                     query_q_with_hidden_projection)

KNOBS = [{}] + [
    {"vis_strategy": strategy, "cross": cross}
    for strategy in ("pre", "post", "post-select", "nofilter")
    for cross in (False, True)
]

STATEMENTS = (
    query_q(0.05),
    query_q_with_hidden_projection(0.2),
    query_q_projections(0.1, 3),          # T12 values, no T12 selection
    "SELECT T0.id, T0.v1 FROM T0, T1 WHERE T0.fk1 = T1.id "
    "AND T0.v1 < 300 AND T1.v1 < 200",    # anchor values + selection
    "SELECT T12.id FROM T12 WHERE T12.h2 = 777 AND T12.v1 < 500",
)


@pytest.mark.parametrize("sql", STATEMENTS, ids=(
    "fig10", "fig12", "fig14", "anchor_values", "empty_result"))
def test_every_vis_table_is_served_exactly_once_per_statement(db, sql):
    bound = db.bind(sql)
    tables = vis_tables(bound)
    assert tables
    for knobs in KNOBS:
        for projection in ("project", "project-nobf", "brute-force"):
            served = db.vis_server.requests_served
            sent = len(db.audit_outbound())
            db.execute(sql, projection=projection, **knobs)
            assert db.vis_server.requests_served - served == len(tables)
            requests = [(m.nbytes, m.description)
                        for m in db.audit_outbound()[sent:]
                        if m.kind == "vis_request"]
            assert requests == [
                (vis_request(bound, t).wire_size(), f"Vis({t})")
                for t in tables
            ]


def test_request_carries_every_projected_visible_column(db):
    bound = db.bind("SELECT T1.id, T1.v2, T1.v1, T12.v1, T1.v2 "
                    "FROM T1, T12 WHERE T1.fk12 = T12.id AND T1.v1 < 500")
    assert vis_tables(bound) == ["T1", "T12"]
    t1 = vis_request(bound, "T1")
    assert t1.columns == ("v2", "v1")
    assert [column for column, _ in t1.predicates] == ["v1"]
    t12 = vis_request(bound, "T12")
    assert (t12.columns, t12.predicates) == (("v1",), ())


def test_fetch_vis_asks_once_and_skips_seeded_tables(db):
    sql = "SELECT T1.id, T1.v2 FROM T1 WHERE T1.v1 < 500"
    ctx = ExecContext(db.token, db.catalog, db.vis_server, db.bind(sql))
    served = db.vis_server.requests_served
    ctx.fetch_vis()
    ctx.fetch_vis()
    assert db.vis_server.requests_served == served + 1
    answer = op_vis(ctx, "T1")
    assert answer.ids == sorted(answer.ids)
    assert [row[0] for row in answer.rows] == answer.ids

    seeded = ExecContext(db.token, db.catalog, db.vis_server, db.bind(sql))
    seeded.seed_vis("T1", answer)
    seeded.fetch_vis()
    assert db.vis_server.requests_served == served + 1
    assert op_vis(seeded, "T1") is answer
