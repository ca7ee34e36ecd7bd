"""The DML journal's snapshots are purpose-built copies: each must be
equal to its original and share no mutable state with it."""

from repro.core.stats import ColumnStats, TableStats
from repro.index.bloom import BloomFilter
from repro.schema.ddl import schema_from_sql


def sketch_state(s):
    return (s.capacity, s.n, dict(s.counts), s.residual_count,
            s.residual_distinct, s.min_key, s.max_key)


def table_state(t):
    return (t.table, t.capacity, t._positions,
            {name: sketch_state(s) for name, s in t.columns.items()})


def bloom_state(b):
    return (b.n_hashes, b.n_items, b.m_bits, bytes(b._bits), b.count_added)


def assert_independent(original, twin, state, mutate):
    """Equal now; mutating either side leaves the other untouched."""
    before = state(original)
    assert state(twin) == before
    mutate(twin)
    assert state(twin) != before and state(original) == before
    twin_state = state(twin)
    mutate(original)
    mutate(original)
    assert state(original) != before and state(twin) == twin_state


def test_column_stats_copy_is_equal_and_independent():
    # capacity 4 and 6 distinct values: the residual is in play
    sketch = ColumnStats.from_values([1, 1, 2, 3, 4, 5, 6, 6], capacity=4)
    assert sketch.residual_count > 0

    def mutate(s):
        s.add(9)        # spills: evicts a tracked value
        s.add(1)
        s.remove(2)

    assert_independent(sketch, sketch.copy(), sketch_state, mutate)


def test_table_stats_copy_is_equal_and_independent():
    table = schema_from_sql(
        ["CREATE TABLE A (id int, v1 int, v2 char(4), h1 int HIDDEN)"]
    ).table("A")
    stats = TableStats.from_rows(
        table, [(i % 3, f"s{i % 2}", i) for i in range(20)], capacity=8)
    twin = stats.copy()
    assert twin.table is stats.table          # the schema is shared
    assert twin.n_rows == stats.n_rows == 20

    def mutate(t):
        t.add_row((7, "zz", 99))
        t.remove_row((0, "s0", 0))

    assert_independent(stats, twin, table_state, mutate)


def test_bloom_filter_copy_is_equal_and_independent():
    bloom = BloomFilter(None, 64)
    bloom.add_many(list(range(0, 40, 2)))
    probe = list(range(0, 2000, 7))
    bloom.contains_many(probe)                # caches the flag bytes
    twin = bloom.copy()
    assert twin._alloc is None
    assert twin.contains_many(probe) == bloom.contains_many(probe)

    added = iter(range(1001, 2000, 7))
    assert_independent(bloom, twin, bloom_state,
                       lambda b: b.add(next(added)))
    # each side's batch probe (flag cache) still agrees with its own
    # bits: the copied cache was dropped by the add, not shared stale
    for b in (bloom, twin):
        assert b.contains_many(probe) == bytes(map(b.__contains__, probe))
