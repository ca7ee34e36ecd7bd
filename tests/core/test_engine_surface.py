"""The execution engine's observable surface, replayed from a recording.

The page-at-a-time QEPSJ operators may only save host-Python work,
never simulated cost.  What they must report is written down once, in
``fixtures/engine_surface.json``: result rows (as a digest), simulated
``total_s`` and its per-operator decomposition, I/O counters, channel
bytes, ``ram_peak`` and ``result_rows`` of 130 executions -- the
fig10/fig12 strategy grid, the projection modes, ORDER BY / LIMIT /
OFFSET clauses, multi-run sort spills on an 8 KB token and DML
interleaved with reads.  Every field is an integer or a pure function
of integers (the ledger derives time from counts at read time), so the
replay asserts ``==``, never a tolerance.

Provenance: the committed fixture was recorded from the id-at-a-time
engine that commit ``badf1b6`` still carried behind
``REPRO_SCALAR_EXEC=1``, before that engine was deleted.  It was
re-recorded once since, when a statement's Vis requests became a
function of the statement alone (one request per visible table,
carrying all of its projected visible columns): ``by_operator.Vis``,
``bytes_to_secure``, ``bytes_to_untrusted``, ``counters.comm_bytes``
and ``total_s`` moved in 114 of the 130 cases -- 102 down (a table is
no longer asked twice, ids then values) and 12 up (an empty result
no longer skips the projection-phase request) -- and every other field
stayed bit-equal in all 130.

Running this file as a script is the fixture's only writer::

    PYTHONPATH=src python tests/core/test_engine_surface.py

It replaces the file with what the engine on ``PYTHONPATH`` reports; a
change that means to move a simulated cost regenerates it and reviews
the ``git diff``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.ghostdb import GhostDB
from repro.hardware.token import TokenConfig
from repro.workloads.queries import query_q, query_q_with_hidden_projection
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

FIXTURE = Path(__file__).parent / "fixtures" / "engine_surface.json"

SV_GRID = (0.001, 0.01, 0.05, 0.2, 0.5)

STRATEGIES = (
    ("pre", False), ("post", False), ("post-select", False),
    ("nofilter", False), ("pre", True), ("post", True),
    ("post-select", True), ("nofilter", True),
)

#: eight ORDER BY / LIMIT / OFFSET clauses drawn once and frozen, so
#: the fixture does not depend on any Python version's RNG
ORDER_BY_STATEMENTS = tuple(
    "SELECT T0.id, T1.id, T1.v1 FROM T0, T1 WHERE T0.fk1 = T1.id "
    f"AND T1.v1 < {bound} ORDER BY {clause}"
    for bound, clause in (
        (352, "T0.id ASC, T1.id ASC LIMIT 10 OFFSET 7"),
        (884, "T1.v1 ASC, T1.v1 ASC LIMIT 11"),
        (105, "T1.v2 ASC, T1.v2 DESC LIMIT 0"),
        (396, "T1.v2 ASC"),
        (492, "T1.v2 ASC, T1.v2 ASC"),
        (370, "T1.v1 DESC, T1.id ASC"),
        (700, "T0.id DESC"),
        (289, "T0.id ASC LIMIT 19 OFFSET 5"),
    )
)

SPILL_STATEMENTS = (
    "SELECT P.id, P.hp FROM P WHERE P.v < 90 ORDER BY P.hp DESC",
    "SELECT P.id, P.v, C.w FROM P, C WHERE P.fk = C.id "
    "AND P.v < 80 ORDER BY C.w, P.v DESC LIMIT 25 OFFSET 5",
)

#: INSERT / DELETE values drawn once and frozen (T11 and T12 hold 200
#: rows at this scale; the new T1 rows reference the new T12 rows)
DML_STATEMENTS = (
    "INSERT INTO T12 VALUES (331, 970, 2, 6)",
    "INSERT INTO T1 VALUES (166, 200, 49, 74, 8)",
    "DELETE FROM T0 WHERE T0.v1 < 8",
    "INSERT INTO T12 VALUES (374, 596, 0, 8)",
    "INSERT INTO T1 VALUES (54, 201, 38, 88, 6)",
    "INSERT INTO T12 VALUES (428, 71, 3, 1)",
    "INSERT INTO T1 VALUES (141, 202, 434, 60, 9)",
    "DELETE FROM T0 WHERE T0.v1 < 8",
    "INSERT INTO T12 VALUES (970, 228, 9, 0)",
    "INSERT INTO T1 VALUES (147, 203, 599, 406, 0)",
    "INSERT INTO T12 VALUES (999, 226, 0, 8)",
    "INSERT INTO T1 VALUES (34, 204, 296, 429, 2)",
    "DELETE FROM T0 WHERE T0.v1 < 22",
    "INSERT INTO T12 VALUES (120, 584, 4, 8)",
    "INSERT INTO T1 VALUES (174, 205, 185, 105, 9)",
)


def case_list():
    """``{group: [(sql, knobs), ...]}`` in execution order."""
    grid = []
    for sv in SV_GRID:
        for sql_of in (query_q, query_q_with_hidden_projection):
            sql = sql_of(sv)
            grid += [(sql, {"vis_strategy": strategy, "cross": cross})
                     for strategy, cross in STRATEGIES]
            grid.append((sql, {}))        # the cost-based plan too
    post_cross = {"vis_strategy": "post", "cross": True}
    dml = []
    for i, statement in enumerate(DML_STATEMENTS):
        dml.append((statement, {}))
        if i % 3 == 0:
            dml.append((query_q(0.1), {}))
            dml.append((query_q(0.1),
                        {"vis_strategy": "post", "cross": False}))
    dml += [(query_q(sv), {}) for sv in (0.01, 0.2)]   # a final sweep
    return {
        "grid": grid,
        "projection": [
            (query_q_with_hidden_projection(0.1),
             dict(post_cross, projection=projection))
            for projection in ("project", "project-nobf", "brute-force")],
        "order_by": [(sql, {}) for sql in ORDER_BY_STATEMENTS],
        "spill": [(sql, {"order_method": "external-sort"})
                  for sql in SPILL_STATEMENTS],
        "dml": dml,
    }


def synthetic_db():
    return build_synthetic(SyntheticConfig(scale=0.002, full_indexing=True))


def tiny_ram_db():
    """An 8 KB token: ORDER BY over 2 000 rows must spill several runs."""
    db = GhostDB(config=TokenConfig(ram_bytes=8192),
                 indexed_columns={"C": ("h",), "P": ("hp",)})
    db.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
               "v int, hp float HIDDEN)")
    db.execute("CREATE TABLE C (id int, h int HIDDEN, w int)")
    db.load("C", [(i % 10, i % 7) for i in range(40)])
    db.load("P", [(i % 40, (i * 37) % 100, (i * 13 % 97) / 3.0)
                  for i in range(2000)])
    db.build()
    return db


def observe(result):
    """Everything the recording covers, as one JSON-comparable value."""
    stats = result.stats
    rows = list(getattr(result, "rows", ()))
    return {
        "n_rows": len(rows),
        "rows_digest": hashlib.sha256(repr(rows).encode()).hexdigest()[:16],
        "total_s": stats.total_s,
        "by_operator": dict(stats.by_operator),
        "counters": dict(stats.counters),
        "bytes_to_secure": stats.bytes_to_secure,
        "bytes_to_untrusted": stats.bytes_to_untrusted,
        "ram_peak": stats.ram_peak,
        "result_rows": stats.result_rows,
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


def replay(db, recorded, group):
    """Execute the group's recorded statements on ``db`` in order and
    assert every recorded field; returns the group's cases."""
    cases = [case for case in recorded if case["group"] == group]
    assert [(c["sql"], c["knobs"]) for c in cases] == case_list()[group], \
        "the fixture is not this file's case list: run it as a script"
    for case in cases:
        got = observe(db.execute(case["sql"], **case["knobs"]))
        for key, value in got.items():
            assert value == case[key], (
                f"{key} moved for {case['sql']!r} {case['knobs']}:\n"
                f"  now     : {value}\n  recorded: {case[key]}"
            )
    return cases


def test_fig10_fig12_grid_surface(db, recorded):
    """Every strategy x cross x selectivity point of the fig10/fig12
    workloads, plus the cost-based plan of each."""
    assert len(replay(db, recorded, "grid")) == 90


def test_projection_modes_surface(db, recorded):
    """Project / Project-NoBF / Brute-Force (Bloom fp paths)."""
    replay(db, recorded, "projection")


def test_order_by_limit_surface(db, recorded):
    """ORDER BY / LIMIT / OFFSET clauses under every method the
    planner picks for them (external sort spills included)."""
    replay(db, recorded, "order_by")


def test_external_sort_spill_surface(recorded):
    """A 8 KB token forces multi-run spills with reduction passes."""
    for case in replay(tiny_ram_db(), recorded, "spill"):
        assert case["counters"]["sort_spill_runs"] > 1, (
            "workload did not actually spill; the case is vacuous"
        )


def test_interleaved_dml_surface(recorded):
    """INSERT/DELETE interleaved with queries: DML costs, delta-log
    lookups and tombstone filtering.  Mutates, so builds its own
    database."""
    replay(synthetic_db(), recorded, "dml")


def write_fixture():
    """Record every case from the engine on ``PYTHONPATH``."""
    read_only = synthetic_db()
    dbs = {"grid": read_only, "projection": read_only,
           "order_by": read_only, "spill": tiny_ram_db(),
           "dml": synthetic_db()}
    lines = [
        json.dumps(dict(observe(dbs[group].execute(sql, **knobs)),
                        group=group, sql=sql, knobs=knobs),
                   sort_keys=True)
        for group, cases in case_list().items()
        for sql, knobs in cases
    ]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"{len(lines)} cases -> {FIXTURE} "
          f"({FIXTURE.stat().st_size} bytes)")


if __name__ == "__main__":
    write_fixture()
