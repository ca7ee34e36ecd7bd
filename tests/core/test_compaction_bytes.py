"""A compacted image is a fresh build, byte for byte.

Compaction moves fixed-width records as byte slices (and remaps an
ancestor SKT's column on a u32 word view) instead of decoding and
re-packing rows.  That is only sound because the codec round-trips
every record it wrote, so the contract is checked on the payloads
themselves, on a three-level schema ``P <- C <- G`` whose hidden
columns cover every codec: ``SMALLINT`` / ``INT`` / ``BIGINT`` at their
extremes, ``FLOAT`` with ``-0.0`` and values near the double range,
``CHAR`` with multi-byte UTF-8 strings exactly the column width.

After ``compact(T)`` runs to done, ``T``'s hidden heap, ``SKT(T)``,
every ancestor SKT and every folded climbing index (tree and run
files) must equal the flash pages of a database built fresh from the
retained raw rows -- wherever the fresh build describes the same live
rows (a structure carrying another table's tombstones does not).  An
ancestor SKT is also compared with the row path the byte copy
replaced (decode, ``id_map.get(cell, 0)``, ``pack_rows``), which is
the only check available for an ancestor with tombstones of its own.
"""

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compaction import CompactionJob
from repro.core.ghostdb import GhostDB
from repro.flash.constants import FlashParams
from repro.hardware.token import TokenConfig

#: small pages: every heap and SKT spans several, and 28-byte rows
#: leave a tail on each page that the output cut must not copy
PAGE = 128

N_P, N_C, N_G = 30, 40, 48
REF_C, REF_G = 24, 30        # P rows reference C[:24], C rows G[:30]

BIG = sys.float_info.max
FLOATS = (-0.0, 0.0, BIG, -BIG, BIG / 3, 5e-324, -1.5, 2.25)
CHARS = ("ééé", "日本", "€€", "abcdef", "x", "", "aébcd", "Ωz")

DDL = (
    "CREATE TABLE P (id int, fk int HIDDEN REFERENCES C, k int, "
    "a smallint HIDDEN, f float HIDDEN, s char(6) HIDDEN)",
    "CREATE TABLE C (id int, fk int HIDDEN REFERENCES G, k int, "
    "b bigint HIDDEN, f float HIDDEN)",
    "CREATE TABLE G (id int, k int, a smallint HIDDEN, b bigint HIDDEN, "
    "i int HIDDEN, f float HIDDEN, s char(6) HIDDEN)",
)


def initial_rows():
    g = [(i, (-32768, 32767, i)[i % 3], (-2**63, 2**63 - 1, -i)[i % 3],
          (-2**31, 2**31 - 1, 7 * i)[i % 3], FLOATS[i % len(FLOATS)],
          CHARS[i % len(CHARS)]) for i in range(N_G)]
    c = [(i % REF_G, i, (2**63 - 1, -i)[i % 2], FLOATS[(i * 3) % 8])
         for i in range(N_C)]
    p = [(i % REF_C, i, (i % 5) - 2, FLOATS[(i * 5) % 8], CHARS[i % 8])
         for i in range(N_P)]
    return {"P": p, "C": c, "G": g}


def build(rows):
    db = GhostDB(config=TokenConfig(flash=FlashParams(
        page_size=PAGE, n_blocks=512, pages_per_block=16)))
    for ddl in DDL:
        db.execute(ddl)
    for table in ("G", "C", "P"):
        db.load(table, rows[table])
    db.build()
    return db


def pages(f):
    return [f.read_page(i) for i in range(f.n_pages)]


def index_files(idx):
    return [pages(f) for f in idx.storage_files()]


def indexes(catalog):
    out = {("attr",) + key: idx for key, idx in catalog.attr_indexes.items()}
    out.update({("id", t): idx for t, idx in catalog.id_indexes.items()})
    return out


def row_path_remap(heap, pos, id_map):
    """The copy as it used to be: decode, remap one cell, repack."""
    rows = [tuple(id_map.get(cell, 0) if i == pos else cell
                  for i, cell in enumerate(row)) for row in heap.scan()]
    per = heap.rows_per_page
    return [heap.codec.pack_rows(rows[i:i + per])
            for i in range(0, len(rows), per)]


@st.composite
def delete_plans(draw):
    """DELETE sets on the root, the middle and the leaf table that
    RESTRICT admits (a child row goes only once no live parent row
    references it; P row 0 stays, so no table is emptied), plus the
    order the tables are then compacted in."""
    rows = initial_rows()
    dead_p = draw(st.sets(st.integers(1, N_P - 1)))
    held_c = {rows["P"][i][0] for i in range(N_P) if i not in dead_p}
    dead_c = draw(st.sets(st.sampled_from(
        [i for i in range(N_C) if i not in held_c])))
    held_g = {rows["C"][i][0] for i in range(N_C) if i not in dead_c}
    dead_g = draw(st.sets(st.sampled_from(
        [i for i in range(N_G) if i not in held_g])))
    order = draw(st.permutations(["P", "C", "G"]))
    pages_per_step = draw(st.sampled_from((1, 3, 32)))
    return {"P": dead_p, "C": dead_c, "G": dead_g}, order, pages_per_step


@given(delete_plans())
@settings(max_examples=30, deadline=None)
def test_compacted_image_equals_a_fresh_build(plan):
    dead, order, pages_per_step = plan
    db = build(initial_rows())
    for table in ("P", "C", "G"):          # parents first: RESTRICT
        for k in sorted(dead[table]):
            db.execute(f"DELETE FROM {table} WHERE {table}.k = ?",
                       params=(k,))
    catalog = db.catalog
    schema = catalog.schema
    for T in order:
        tomb = catalog.tombstones
        live = [rid for rid in range(catalog.n_rows(T))
                if rid not in tomb[T]]
        id_map = {rid: new for new, rid in enumerate(live)}
        oracle = {}
        if tomb[T]:
            for anc in schema.ancestors(T):
                askt = catalog.skts[anc]
                oracle[anc] = row_path_remap(
                    askt.heap, askt.column_positions([T])[0], id_map)
        before = indexes(catalog)
        had_tombstones = bool(tomb[T])

        assert db.compact(T, pages_per_step=pages_per_step).done
        fresh = build(catalog.raw_rows).catalog

        if had_tombstones:
            for kind in ("images", "skts"):
                mine = getattr(catalog, kind).get(T)
                theirs = getattr(fresh, kind).get(T)
                if mine is None or mine.heap is None:
                    continue
                assert mine.heap.n_rows == theirs.heap.n_rows == len(live)
                assert pages(mine.heap.file) == pages(theirs.heap.file), \
                    (kind, T)
        for anc in schema.ancestors(T):
            mine = pages(catalog.skts[anc].heap.file)
            if anc in oracle:
                assert mine == oracle[anc], (anc, T)
            if not tomb[anc]:
                assert mine == pages(fresh.skts[anc].heap.file), (anc, T)
        for key, idx in indexes(catalog).items():
            if idx is before[key]:
                continue                   # not folded
            assert "~c" in idx.name
            if any(tomb[level] for level in idx.levels):
                continue                   # carries other live-row sets
            assert index_files(idx) == index_files(indexes(fresh)[key]), key

    # every table compacted: the whole image is the fresh build's
    assert not any(catalog.tombstones.values())
    fresh = build(catalog.raw_rows).catalog
    for table in schema.tables:
        for kind in ("images", "skts"):
            mine = getattr(catalog, kind).get(table)
            if mine is not None and mine.heap is not None:
                assert pages(mine.heap.file) == \
                    pages(getattr(fresh, kind)[table].heap.file)
    theirs = indexes(fresh)
    for key, idx in indexes(catalog).items():
        assert index_files(idx) == index_files(theirs[key]), key


# ---------------------------------------------------------------------------
# the fold's index read: one run per file, same ledger as page by page
# ---------------------------------------------------------------------------

def test_fold_reads_each_index_file_as_one_charged_run(monkeypatch):
    db = build(initial_rows())
    idx = db.catalog.attr_indexes[("G", "s")]
    files = idx.storage_files()            # tree + one run per level
    assert len(files) == 4 and sum(f.n_pages for f in files) > len(files)
    ledger = db.token.ledger
    ftl = db.token.ftl
    charges = []
    real_charge = ftl.charge_read
    monkeypatch.setattr(ftl, "charge_read",
                        lambda n, nbytes: (charges.append(n),
                                           real_charge(n, nbytes)))

    job = CompactionJob(db, "G", 32, seq=1)
    start = ledger.snapshot()
    with db.token.label("Compact"):
        job._charge_index_read(idx)
    as_runs = ledger.snapshot() - start
    assert charges == [f.n_pages for f in files]

    del charges[:]
    start = ledger.snapshot()
    with db.token.label("Compact"):
        for f in files:
            for page in range(f.n_pages):
                f.read_page(page)
    page_by_page = ledger.snapshot() - start
    assert len(charges) == sum(f.n_pages for f in files)
    assert as_runs == page_by_page
    job.abort()
