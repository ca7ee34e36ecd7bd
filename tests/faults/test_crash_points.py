"""Every crash point, enumerated: the one fault enumerator.

Each table below lists paths.  The enumerator runs a path once,
fault-free, to count its fault ordinals n -- page programs, shard
touches, read attempts or response frames -- then, for every k in
0..n-1, runs it again with the fault at k, recovers, and compares the
result with a twin that never saw a fault (the fault-free run is case
n).  Every case makes the checks of :func:`check`:

* each probe's rows equal the twin's, and the oracle's;
* ``statistics()``, each shard's generations, files (each one's page
  count and tail fill) and mapped pages, and a fleet's root maps equal
  the twin's;
* secure RAM is all freed, and only safe message kinds left a token;
* every page the write frontier passed is mapped or counted invalid,
  so GC can reclaim a page a cut interrupted;
* the state survives an image round trip: one case per path through
  ``snapshot`` -> ``restore(verify=True)`` on disk, the others through
  the same image bytes in memory;
* one more fault-free INSERT and DELETE keep it equal to the twin.

Nothing is sampled -- no Hypothesis, no seed, no environment variable
-- so a failing case reruns identically from its test id.
"""

import asyncio
import contextlib
import os
from dataclasses import dataclass
from unittest.mock import patch

import pytest

from repro.core.dml import DmlResult
from repro.core.ghostdb import GhostDB
from repro.errors import (GhostDBError, PersistError, PowerLoss,
                          ShardUnavailable)
from repro.faults import FlashFaults, FleetFaults, WireFaults
from repro.faults.flash import LANDINGS, TORN
from repro.flash.constants import FlashParams
from repro.hardware.token import TokenConfig
from repro.persist.image import dumps, loads
from repro.service.client import AsyncGhostClient
from repro.service.server import GhostServer
from repro.shard.fleet import ShardedGhostDB

from chaos import PROBES, assert_no_leak, build_pc, file_shapes

#: the fault-free statements every case ends with
SETTLE = ("INSERT INTO P VALUES (4, 61, 7.5)",
          "DELETE FROM P WHERE P.v > 90")


# ----------------------------------------------------------------------
# twins: image bytes, views and the per-case check
# ----------------------------------------------------------------------
def shards_of(db):
    return db.shards if isinstance(db, ShardedGhostDB) else [db]


def rows(db, sql, oracle=False):
    got = db.reference_query(sql)[1] if oracle else db.execute(sql).rows
    return got if "ORDER BY" in sql else sorted(got)


def marks(db):
    """What a fleet abort must leave untouched: every shard's
    generations, and a fleet's root maps and next global id."""
    gens = [dict(s.table_generations) for s in shards_of(db)]
    if isinstance(db, ShardedGhostDB):
        return gens, [list(m) for m in db._root_maps], db._next_root_gid
    return gens


def view(db):
    """What a case compares with its twin."""
    return {"rows": [rows(db, sql) for sql in PROBES],
            "statistics": db.statistics(),
            "marks": marks(db),
            "files": [(s.token.ftl.mapped_pages(), file_shapes(s))
                      for s in shards_of(db)]}


def settle(db):
    for sql in SETTLE:
        db.execute(sql)


def twin(db):
    """The views a case must reproduce: ``db`` as it is, and after
    :data:`SETTLE` (which ``db`` then has run)."""
    now = view(db)
    settle(db)
    return now, view(db)


def assert_pages_accounted(ftl):
    """In every block that is not free, mapped pages plus the pages
    counted invalid are the pages the write frontier has passed."""
    ppb = ftl.params.pages_per_block
    mapped = [0] * ftl.params.n_blocks
    for ppn in ftl._p2l:
        mapped[ppn // ppb] += 1
    free = set(ftl._free_blocks)
    for block in range(ftl.params.n_blocks):
        if block in free:
            continue
        passed = (ftl._frontier - block * ppb
                  if block == ftl._active_block else ppb)
        assert mapped[block] + ftl._invalid_per_block[block] == passed, \
            f"block {block}: {mapped[block]} mapped + " \
            f"{ftl._invalid_per_block[block]} invalid != {passed} passed"


def check(db, expected, disk=None):
    """The checks every case makes against its twin's views."""
    now, settled = expected
    assert view(db) == now
    assert now["rows"] == [rows(db, sql, oracle=True) for sql in PROBES]
    for shard in shards_of(db):
        shard.token.ram.assert_all_freed()
        assert_pages_accounted(shard.token.ftl)
    assert_no_leak(db)
    if disk is None:
        copy = loads(dumps(db))
    else:
        db.snapshot(str(disk))
        copy = GhostDB.restore(str(disk), verify=True)
    assert view(copy) == now
    settle(db)
    assert view(db) == settled


def faulted(nand, run, **schedule):
    """``run()`` with a :class:`FlashFaults` schedule on ``nand``;
    returns the injector (its counters)."""
    faults = FlashFaults(nand, **schedule).attach()
    try:
        run()
    finally:
        faults.detach()
    return faults


# ----------------------------------------------------------------------
# power cuts on one token
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Path:
    """A write path: ``run`` on the database ``base`` builds, once
    ``prepare`` has run on it (a committed statement is not part of
    an image, so the one an undo reverts runs on every copy)."""

    name: str
    run: object
    base: object = build_pc
    prepare: tuple = ()
    #: recover() finishes a cut run instead of undoing it
    finishes: bool = False
    #: the recover() after each cut is cut at each of its programs too
    twice: bool = False


def statement(sql):
    """``sql`` as a path; it answers with its count or its rows."""
    def run(db):
        result = db.execute(sql)
        return (result.rows_affected if isinstance(result, DmlResult)
                else sorted(result.rows))
    return run


def compact_in_steps(db):
    """Every step of a bounded compaction of P, the swap included."""
    while not db.compact("P", max_steps=1).done:
        pass


FILL = "INSERT INTO P VALUES (5, 42, 3.5)"


def filled(moves, config=None, short=0):
    """A base: ``build_pc(config)`` plus the :data:`FILL` INSERTs that
    precede the first one (after the very first, which opens P's delta
    log) to change ``moves(db)``, ``short`` of them left out."""
    def build():
        scout = build_pc(config=config)
        scout.execute(FILL)
        for n in range(1, 1000):
            mark = moves(scout)
            scout.execute(FILL)
            if moves(scout) != mark:
                db = build_pc(config=config)
                for _ in range(n - short):
                    db.execute(FILL)
                return db
        raise AssertionError("no INSERT changed moves(db)")
    return build


def crossing(sql, name):
    """``sql`` as a path that must re-program the tail page of file
    ``name`` and open the page after it."""
    def run(db):
        log = db.token.store.get(name)
        pages, before = log.n_pages, log.n_bytes
        answer = statement(sql)(db)
        assert log.n_pages == pages + 1
        assert log.n_bytes - log.tail_fill > before   # the tail grew
        return answer
    return run


#: a 64-id tombstone page, so an 80-row table's deletions cross pages
SMALL_PAGES = TokenConfig(flash=FlashParams(page_size=256))


PATHS = [
    Path("insert", statement("INSERT INTO P VALUES (3, 55, 9.5)"),
         twice=True),
    # its first row fills the tail page of P's delta log, its second
    # opens the next page: the rollback drops that page and cuts the
    # tail back, and a rerun of a cut rollback must not cut twice
    Path("insert_opening_a_page",
         crossing(f"{FILL}, (6, 43, 4.5)", "ci_P_hp_delta"),
         base=filled(lambda db: db.token.ftl.mapped_pages(), short=1),
         twice=True),
    Path("delete_visible", statement("DELETE FROM P WHERE P.v < 25")),
    Path("delete_hidden", statement("DELETE FROM P WHERE P.hp < 5")),
    Path("delete_mixed",
         statement("DELETE FROM P WHERE P.v < 50 AND P.hp < 10")),
    # its tombstones fill the tail page of the log an earlier DELETE
    # opened and open the next page: cuts land on both programs
    Path("delete_opening_a_page",
         crossing("DELETE FROM P WHERE P.v < 25", "tombstones_P"),
         base=lambda: build_pc(config=SMALL_PAGES),
         prepare=("DELETE FROM P WHERE P.v >= 40",), twice=True),
    # the undone DELETE extends the tombstone log an earlier one
    # created, so its rollback re-programs the log's tail (undoing the
    # DELETE that created the log frees it and programs nothing)
    Path("undo_last_dml", GhostDB.undo_last_dml, finishes=True,
         prepare=("DELETE FROM P WHERE P.v >= 95",
                  "DELETE FROM P WHERE P.v < 25"), twice=True),
    Path("compact", compact_in_steps, prepare=(
        "DELETE FROM P WHERE P.v < 30",
        "INSERT INTO P VALUES (1, 31, 2.5), (2, 32, 12.5)")),
    Path("gc_relocation", statement(FILL), base=filled(
        lambda db: db.token.ftl.gc_pages_moved,
        TokenConfig(flash=FlashParams(n_blocks=8))), twice=True),
]


def fresh(raw, path):
    """``path``'s starting database, revived from ``raw``."""
    db = loads(raw)
    for sql in path.prepare:
        db.execute(sql)
    return db


def cut(raw, path, address):
    """``path``'s starting database, dead: power was cut at
    ``address`` of the path."""
    db = fresh(raw, path)
    with pytest.raises(PowerLoss):
        faulted(db.token.nand, lambda: path.run(db), cut=address)
    return db


@pytest.fixture(scope="module")
def paths():
    """Per path: its base image, and its twins' views without and
    with the path run."""
    out = {}
    for path in PATHS:
        raw = dumps(path.base())
        done = fresh(raw, path)
        path.run(done)
        out[path.name] = raw, twin(fresh(raw, path)), twin(done)
    return out


@pytest.mark.parametrize("path", PATHS, ids=lambda p: p.name)
def test_every_power_cut_recovers_to_the_twin(path, paths, tmp_path):
    """Cut at every program with every landing, then recover: the
    token is the twin that never ran the path (or, for an undo, the
    one that finished it)."""
    raw, before, after = paths[path.name]
    db = fresh(raw, path)
    n = faulted(db.token.nand, lambda: path.run(db)).programs
    assert n > 0
    check(db, after)
    disk = tmp_path / "cut.img"         # the first cut goes to a file
    for k in range(n):
        for landing in LANDINGS:
            db = cut(raw, path, (k, landing))
            assert db.recover().power_cycled
            check(db, after if path.finishes else before, disk)
            disk = None


@pytest.mark.parametrize("path", [p for p in PATHS if p.twice],
                         ids=lambda p: p.name)
def test_a_cut_inside_recover_is_recovered_again(path, paths, tmp_path):
    """Cut the path at k, then cut the recover() that follows at each
    of its programs j: a second recover() still reaches the twin.  The
    landings take turns (every one meets every path)."""
    raw, before, after = paths[path.name]
    expected = after if path.finishes else before
    db = fresh(raw, path)
    n = faulted(db.token.nand, lambda: path.run(db)).programs
    disk = tmp_path / "twice.img"
    for k in range(n):
        first = (k, LANDINGS[k % 3])
        db = cut(raw, path, first)
        m = faulted(db.token.nand, db.recover).programs
        for j in range(m):
            db = cut(raw, path, first)
            with pytest.raises(PowerLoss):
                faulted(db.token.nand, db.recover,
                        cut=(j, LANDINGS[j % 3]))
            db.recover()
            check(db, expected, disk)
            disk = None


# ----------------------------------------------------------------------
# a two-shard fleet: power cuts on each shard, a death at every touch
# ----------------------------------------------------------------------
#: spans both shards, so one shard has applied when the other dies
ROOT_INSERT = ("INSERT INTO P VALUES (0, 900, 1.5), (1, 901, 1.5), "
               "(2, 902, 1.5), (3, 903, 1.5)")

FLEET_CUTS = [ROOT_INSERT, "DELETE FROM P WHERE P.v < 25"]


@pytest.fixture(scope="module")
def fleet_raw():
    fleet = build_pc(shards=2)
    fleet.execute("DELETE FROM P WHERE P.v < 10")   # debt to compact
    return dumps(fleet)


@pytest.mark.parametrize("sql", FLEET_CUTS,
                         ids=["root_insert", "delete"])
def test_every_power_cut_on_either_shard_aborts_the_fleet_statement(
        sql, fleet_raw, tmp_path):
    """A shard that loses power mid-statement fails it on every shard:
    the ones that applied roll back, the cut one recovers."""
    before = twin(loads(fleet_raw))
    done = loads(fleet_raw)
    done.execute(sql)
    after = twin(done)
    disk = tmp_path / "fleet.img"
    for s in range(2):
        fleet = loads(fleet_raw)
        nand = fleet.shards[s].token.nand
        n = faulted(nand, lambda: fleet.execute(sql)).programs
        assert n > 0
        check(fleet, after)
        for k in range(n):
            fleet = loads(fleet_raw)
            nand = fleet.shards[s].token.nand
            with pytest.raises(PowerLoss):
                faulted(nand, lambda: fleet.execute(sql),
                        cut=(k, LANDINGS[k % 3]))
            assert fleet.recover()[s].power_cycled
            check(fleet, before, disk)
            disk = None


class Touches(FleetFaults):
    """Kills nothing; records the shard of every touch."""

    def __init__(self):
        super().__init__()
        self.order = []

    def check(self, shard_id):
        self.order.append(shard_id)
        super().check(shard_id)


def outcome(run, db):
    """What a statement answered, or the type of its refusal."""
    try:
        return run(db)
    except ShardUnavailable:
        raise
    except GhostDBError as exc:
        return type(exc)


FLEET_STATEMENTS = {
    "root_insert": statement(ROOT_INSERT),
    "replicated_insert": statement("INSERT INTO C VALUES (3, 4)"),
    "delete": statement("DELETE FROM P WHERE P.v < 25"),
    # passes RESTRICT (no C row has w = 99), so a death at an apply
    # touch undoes a C DELETE on the shards that applied it
    "replicated_delete": statement("DELETE FROM C WHERE C.w = 99"),
    # C rows 1 and 7 have w = 5 and P rows refer to both: RESTRICT
    # refuses the statement on every shard
    "restricted_delete": statement("DELETE FROM C WHERE C.w = 5"),
    "scatter_select": statement(PROBES[0]),
    "root_free_select": statement("SELECT C.id, C.w FROM C WHERE C.h = 2"),
    "compact_preflight": lambda fleet: fleet.compact("P").state,
}


@pytest.mark.parametrize("name", FLEET_STATEMENTS)
def test_a_shard_death_at_every_touch_is_all_or_nothing(
        name, fleet_raw, tmp_path):
    """Kill the shard each touch reaches, at that touch: the statement
    either stops there naming it, with no shard moved past its
    pre-statement generations and root maps, and goes through once the
    shard is back -- or, a root-free read rerouted, answers as if
    nothing died."""
    run = FLEET_STATEMENTS[name]
    before = view(loads(fleet_raw))
    done = loads(fleet_raw)
    answer = outcome(run, done)
    after = twin(done)
    fleet = loads(fleet_raw)
    fleet.faults = touches = Touches()
    assert outcome(run, fleet) == answer
    fleet.faults = None
    check(fleet, after)
    assert touches.order
    disk = tmp_path / "dead.img"
    for t, dead in enumerate(touches.order):
        fleet = loads(fleet_raw)
        pre = marks(fleet)
        fleet.faults = FleetFaults(kill_at=(dead, t))
        try:
            assert outcome(run, fleet) == answer
            aborted = False
        except ShardUnavailable as exc:
            assert f"shard {dead}" in str(exc)
            assert fleet.faults.touches == t + 1
            assert not fleet.fleet_health()[dead]["up"]
            assert marks(fleet) == pre
            aborted = True
        assert fleet.faults.killed == [dead]
        fleet.faults = None
        fleet.recover()
        assert all(h["up"] for h in fleet.fleet_health().values())
        if aborted:
            assert view(fleet) == view(loads(dumps(fleet))) == before
            assert outcome(run, fleet) == answer
        check(fleet, after, disk)
        disk = None


# ----------------------------------------------------------------------
# images: a failed snapshot, and what an image holds
# ----------------------------------------------------------------------
class FileFaults:
    """Counts a snapshot's durable file operations -- ``os.fsync`` and
    ``os.replace`` -- and raises at ordinal ``fail_at``."""

    def __init__(self, fail_at=None):
        self.fail_at = fail_at
        self.ops = 0

    def patches(self):
        return [patch.object(os, name, self.wrap(getattr(os, name)))
                for name in ("fsync", "replace")]

    def wrap(self, real):
        def op(*args):
            k, self.ops = self.ops, self.ops + 1
            if k == self.fail_at:
                raise OSError(f"file operation {k} failed")
            return real(*args)
        return op


def snapshot_with(faults, db, path):
    with contextlib.ExitStack() as stack:
        for p in faults.patches():
            stack.enter_context(p)
        return db.snapshot(str(path))


def test_a_fleet_snapshot_failing_at_every_file_operation_leaves_one_image(
        tmp_path):
    """Re-snapshot a changed fleet over its image and fail the k-th
    file operation: the image restores to the old fleet or the new
    one -- never shards of both -- and agrees with its own oracle."""
    old_fleet, fleet = build_pc(shards=2), build_pc(shards=2)
    old = view(old_fleet)
    fleet.execute("DELETE FROM P WHERE P.v < 50")
    while not fleet.compact("P").done:
        pass
    fleet.execute("INSERT INTO P VALUES (1, 51, 2.5), (2, 52, 12.5)")
    new = view(fleet)
    assert new != old
    counted = FileFaults()
    snapshot_with(counted, fleet, tmp_path / "counted.img")
    assert counted.ops > 0
    for k in range(counted.ops + 1):        # the last case: no fault
        path = tmp_path / f"case{k}.img"
        old_fleet.snapshot(str(path))
        if k < counted.ops:
            with pytest.raises(PersistError):
                snapshot_with(FileFaults(k), fleet, path)
        else:
            snapshot_with(FileFaults(), fleet, path)
        restored = GhostDB.restore(str(path), verify=True)
        assert view(restored) == (new if k == counted.ops else old)
        for sql in PROBES:
            assert rows(restored, sql) == rows(restored, sql, oracle=True)


def after(sql, base=build_pc):
    def build():
        db = base()
        db.execute(sql)
        return db
    return build


def after_compaction():
    db = build_pc()
    db.execute("DELETE FROM P WHERE P.v < 30")
    compact_in_steps(db)
    return db


def after_gc_relocation():
    path = next(p for p in PATHS if p.name == "gc_relocation")
    db = path.base()
    moved = db.token.ftl.gc_pages_moved
    path.run(db)
    assert db.token.ftl.gc_pages_moved > moved
    return db


def after_cut_insert():
    db = build_pc()
    with pytest.raises(PowerLoss):
        faulted(db.token.nand, lambda: db.execute(FILL), cut=(0, TORN))
    assert db.recover().power_cycled
    return db


IMAGED_STATES = {
    "delete": after("DELETE FROM P WHERE P.v < 25"),
    "compaction": after_compaction,
    "gc_relocation": after_gc_relocation,
    "cut_insert": after_cut_insert,
    "fleet": after("DELETE FROM P WHERE P.v < 25",
                   base=lambda: build_pc(shards=2)),
}


@pytest.mark.parametrize("name", IMAGED_STATES)
def test_an_image_holds_exactly_the_mapped_pages_and_no_cache(name,
                                                              tmp_path):
    """Every page a restored token's NAND holds is still in the image
    (none read yet), and they are exactly the pages its FTL maps: no
    invalid, torn or relocated page, and no page-cache entry."""
    db = IMAGED_STATES[name]()
    path = tmp_path / "state.img"
    db.snapshot(str(path))
    restored = GhostDB.restore(str(path))
    for shard, twin_shard in zip(shards_of(restored), shards_of(db)):
        token = shard.token
        assert token.nand.image_backed_pages() == \
            token.ftl.mapped_pages() == twin_shard.token.ftl.mapped_pages()
        assert token.store.cache_stats()["cached_pages"] == 0


# ----------------------------------------------------------------------
# transient read flips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sql", PROBES, ids=["join", "hidden", "top_k"])
def test_a_flip_at_every_read_attempt_is_healed(sql, paths, tmp_path):
    """Flip one bit at each read attempt of a probe: the NAND's retry
    heals it and the answer is the fault-free one."""
    raw, before = paths["insert"][:2]
    db = loads(raw)
    clean = rows(loads(raw), sql)
    n = faulted(db.token.nand, lambda: assert_rows(db, sql, clean)).reads
    flips = 0
    disk = tmp_path / "flip.img"
    for i in range(n):
        db = loads(raw)
        faults = faulted(db.token.nand,
                         lambda: assert_rows(db, sql, clean),
                         flip_reads={i})
        assert db.token.nand.read_retries == faults.flips
        flips += faults.flips
        check(db, before, disk)
        disk = None
    assert flips > 0


def assert_rows(db, sql, expected):
    assert rows(db, sql) == expected


# ----------------------------------------------------------------------
# response frames on the wire
# ----------------------------------------------------------------------
MARKERS = (7001, 7002, 7003)
#: a stalled frame outlasts the client's timeout, but only just
TIMEOUT_S, STALL_S = 0.05, 0.08
COUNTERS = {"drop": "dropped", "truncate": "truncated",
            "stall": "stalled"}


async def insert_markers(db, wire, timeout_s=5.0):
    """One INSERT per marker through a server with ``wire`` on its
    response path, by a client that retries; returns the client."""
    async with GhostServer(db, wire_faults=wire) as server:
        client = await AsyncGhostClient.connect(
            "127.0.0.1", server.port, timeout_s=timeout_s, retries=3,
            backoff_s=0.01)
        try:
            for marker in MARKERS:
                await client.execute("INSERT INTO P VALUES (?, ?, ?)",
                                     params=(marker % 10, marker, 0.5))
        finally:
            await client.close()
    assert server.errors_total == 0
    return client


def test_a_fault_at_every_response_frame_applies_exactly_once(
        paths, tmp_path):
    """Drop, truncate or stall each response frame of a 3-INSERT
    script: the retried INSERT lands exactly once."""
    raw = paths["insert"][0]
    done, wire = loads(raw), WireFaults()
    assert asyncio.run(insert_markers(done, wire)).retries_total == 0
    after = twin(done)
    disk = tmp_path / "wire.img"
    for k in range(wire.frames):
        for kind, counter in COUNTERS.items():
            db = loads(raw)
            faults = WireFaults(stall_s=STALL_S, **{kind: {k}})
            client = asyncio.run(insert_markers(
                db, faults, TIMEOUT_S if kind == "stall" else 5.0))
            assert getattr(faults, counter) == 1
            assert client.retries_total >= 1
            if kind == "stall":
                assert client.timeouts_total >= 1
            for marker in MARKERS:
                assert len(db.execute("SELECT P.id FROM P WHERE P.v = ?",
                                      params=(marker,)).rows) == 1
            check(db, after, disk)
            disk = None
