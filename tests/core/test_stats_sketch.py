"""Property tests for the statistics sketches (Hypothesis).

The incremental maintenance contract: after any sequence of inserts
and deletes, the maintained sketch must agree with one recomputed from
scratch over the surviving values -- exactly for counts and distincts
(within the tracked capacity), conservatively for the min/max bounds.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GhostDB
from repro.core.stats import ColumnStats, TableStats
from repro.predicate import Predicate

values_st = st.integers(min_value=-50, max_value=50)


@st.composite
def insert_delete_sequences(draw):
    """Interleaved (op, value) sequences; deletes only remove values
    that are currently live (the multiset discipline DML guarantees)."""
    ops = []
    live = []
    for _ in range(draw(st.integers(min_value=0, max_value=60))):
        if live and draw(st.booleans()):
            idx = draw(st.integers(min_value=0, max_value=len(live) - 1))
            ops.append(("delete", live.pop(idx)))
        else:
            value = draw(values_st)
            live.append(value)
            ops.append(("insert", value))
    return ops


@given(insert_delete_sequences())
@settings(max_examples=80, deadline=None)
def test_incremental_matches_scratch(ops):
    """Maintained sketch == sketch recomputed from the survivors."""
    sketch = ColumnStats()
    survivors = Counter()
    for op, value in ops:
        if op == "insert":
            sketch.add(value)
            survivors[value] += 1
        else:
            sketch.remove(value)
            survivors[value] -= 1
            if survivors[value] == 0:
                del survivors[value]
    scratch = ColumnStats.from_values(survivors.elements())
    assert sketch.n == scratch.n == sum(survivors.values())
    assert dict(sketch.counts) == dict(scratch.counts)
    assert sketch.n_distinct == scratch.n_distinct
    if scratch.n:
        # incremental bounds are conservative supersets
        assert sketch.min_key <= scratch.min_key
        assert sketch.max_key >= scratch.max_key


@given(st.lists(values_st, max_size=120))
@settings(max_examples=60, deadline=None)
def test_conservation_under_tiny_capacity(values):
    """With eviction in play, tracked + residual counts still conserve
    the total, and the distinct estimate never understates badly."""
    sketch = ColumnStats(capacity=4)
    for v in values:
        sketch.add(v)
    assert sketch.n == len(values)
    assert sum(sketch.counts.values()) + sketch.residual_count == len(values)
    assert len(sketch.counts) <= 4
    if values:
        assert sketch.min_key == min(values)
        assert sketch.max_key == max(values)


@given(st.lists(values_st, min_size=1, max_size=80))
@settings(max_examples=60, deadline=None)
def test_selectivity_exact_within_capacity(values):
    """Equality and range estimates are exact while the domain fits."""
    sketch = ColumnStats.from_values(values)
    n = len(values)
    probe = values[0]
    assert sketch.selectivity(Predicate("=", probe)) == pytest.approx(
        values.count(probe) / n)
    assert sketch.selectivity(Predicate("<", probe)) == pytest.approx(
        sum(1 for v in values if v < probe) / n)
    assert sketch.selectivity(
        Predicate("between", -10, 10)) == pytest.approx(
        sum(1 for v in values if -10 <= v <= 10) / n)
    assert sketch.selectivity(
        Predicate("in", values=[probe, probe + 1])) == pytest.approx(
        sum(1 for v in values if v in (probe, probe + 1)) / n)


def loop_sketch(values, capacity):
    """The specification: one :meth:`ColumnStats.add` per value."""
    sketch = ColumnStats(capacity=capacity)
    for value in values:
        sketch.add(value)
    return sketch


def observable(sketch):
    """Everything a sketch exposes, ``repr`` keeping ``-0.0`` apart
    from ``0.0`` (and a key's insertion order, which breaks
    ``most_common`` ties)."""
    return (sketch.n, repr(list(sketch.counts.items())),
            sketch.residual_count, sketch.residual_distinct,
            repr(sketch.min_key), repr(sketch.max_key))


@st.composite
def column_values(draw):
    """One column's values: ints, floats (``0.0`` / ``-0.0`` ties
    likely) or chars, from a domain small enough to stay under a
    capacity of 4 or wide enough to spill it."""
    domain = draw(st.sampled_from((
        st.integers(-3, 3),
        st.integers(-10**6, 10**6),
        st.sampled_from((0.0, -0.0, 1.5, -1.5)),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(("", "a", "é", "b")),
        st.text(max_size=3),
    )))
    return draw(st.lists(domain, max_size=60))


@given(column_values(), st.sampled_from((1, 4, 1024)))
@settings(max_examples=200, deadline=None)
def test_from_values_equals_the_add_loop(values, capacity):
    """Under capacity ``from_values`` takes the ``Counter`` / ``min``
    / ``max`` path, over it the loop itself; both must be the loop."""
    assert observable(ColumnStats.from_values(values, capacity)) == \
        observable(loop_sketch(values, capacity))


def test_from_values_keeps_the_first_of_equal_extremes():
    sketch = ColumnStats.from_values([0.0, -0.0, 0.0, -0.0])
    assert repr(sketch.min_key) == repr(sketch.max_key) == "0.0"
    assert repr(list(sketch.counts)) == "[0.0]"
    sketch = ColumnStats.from_values([-0.0, 0.0])
    assert repr(sketch.min_key) == repr(sketch.max_key) == "-0.0"


#: a spilled sketch spreads its untracked values uniformly over
#: [min, max]; on uniform data that costs at most this much selectivity
RESIDUAL_ERROR = 0.02


def test_spilled_sketch_estimates_ranges_from_the_residual():
    """Past its capacity a sketch answers range predicates from the
    tracked values plus the residual's share of the [min, max] span
    (``_bounds_of`` / ``_interval_fraction``): close on uniform data,
    for every range operator, whatever the insertion order."""
    import random
    values = list(range(10_000))
    random.Random(5).shuffle(values)
    sketch = ColumnStats.from_values(values, capacity=100)
    assert len(sketch.counts) == 100 and sketch.residual_count == 9_900
    n = len(values)
    for predicate, exact in [
        (Predicate("<", 2_500), 2_500 / n),
        (Predicate("<=", 7_000), 7_001 / n),
        (Predicate(">", 9_000), 999 / n),
        (Predicate(">=", 5_000), 5_000 / n),
        (Predicate("between", 1_000, 4_000), 3_001 / n),
        (Predicate("<", -5), 0.0),                # below the span
        (Predicate(">=", -5), 1.0),               # covers the span
        (Predicate("between", 20_000, 30_000), 0.0),
    ]:
        assert abs(sketch.selectivity(predicate) - exact) <= \
            RESIDUAL_ERROR, predicate


def test_spilled_char_sketch_assumes_half_the_residual():
    """Strings have no span to interpolate over: the residual of a
    ``char`` column counts half towards any range."""
    values = [f"k{i:05d}" for i in range(10_000)]
    sketch = ColumnStats.from_values(values, capacity=100)
    assert sketch.residual_count == 9_900
    for predicate in (Predicate("<", "k00100"), Predicate(">=", "k00100"),
                      Predicate("between", "k02000", "k02001")):
        # at most the 100 tracked values (1 %) pull away from one half
        assert abs(sketch.selectivity(predicate) - 0.5) <= 0.01, predicate


# ---------------------------------------------------------------------------
# end-to-end: the catalog's stats under random INSERT/DELETE
# ---------------------------------------------------------------------------

def _make_db():
    db = GhostDB()
    db.execute("CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, "
               "v int, h int HIDDEN)")
    db.execute("CREATE TABLE C (id int, v int, h int HIDDEN)")
    db.load("C", [(i % 5, i % 3) for i in range(8)])
    db.load("P", [(i % 8, i % 6, i % 4) for i in range(30)])
    db.build()
    return db


dml_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"),
                  st.integers(min_value=0, max_value=7),   # fk
                  st.integers(min_value=0, max_value=9),   # v
                  st.integers(min_value=0, max_value=5)),  # h
        st.tuples(st.just("delete"),
                  st.integers(min_value=0, max_value=9)),  # v threshold
    ),
    max_size=8,
)


@given(dml_ops)
@settings(max_examples=25, deadline=None)
def test_catalog_stats_match_recomputation_after_dml(ops):
    """After random INSERT/DELETE sequences the maintained table stats
    equal stats recomputed from scratch over the live rows."""
    db = _make_db()
    for op in ops:
        if op[0] == "insert":
            db.execute("INSERT INTO P VALUES (?, ?, ?)",
                       params=op[1:])
        else:
            db.execute("DELETE FROM P WHERE P.v = ?", params=(op[1],))
    catalog = db.catalog
    dead = catalog.tombstones["P"]
    live = [row for rid, row in enumerate(catalog.raw_rows["P"])
            if rid not in dead]
    scratch = TableStats.from_rows(db.schema.table("P"), live)
    maintained = catalog.stats["P"]
    assert maintained.n_rows == scratch.n_rows == len(live)
    for name, column in scratch.columns.items():
        kept = maintained.columns[name]
        assert dict(kept.counts) == dict(column.counts)
        assert kept.n_distinct == column.n_distinct
        if live:
            assert kept.min_key <= column.min_key
            assert kept.max_key >= column.max_key
    # analyze() re-tightens the bounds to the scratch values
    db.analyze()
    refreshed = db.catalog.stats["P"]
    for name, column in scratch.columns.items():
        assert refreshed.columns[name].min_key == column.min_key
        assert refreshed.columns[name].max_key == column.max_key


def test_stats_gathered_at_build():
    db = _make_db()
    summary = db.statistics()
    assert summary["P"]["v"]["n"] == 30
    assert summary["P"]["v"]["min"] == 0
    assert summary["P"]["v"]["max"] == 5
    assert summary["C"]["v"]["n_distinct"] == 5


def test_analyze_bumps_stats_generations_and_invalidates_plans():
    """Stats changes invalidate cached plans like data changes do."""
    db = _make_db()
    session = db.session()
    sql = "SELECT P.id FROM P WHERE P.h = 1"
    session.query(sql)
    db.analyze()
    session.query(sql)
    assert session.plan_cache.stale_drops == 1
