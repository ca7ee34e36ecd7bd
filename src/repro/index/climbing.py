"""Climbing indexes.

A climbing index on ``Ti.attr`` maps each attribute value to one sorted
sublist of IDs *per ancestor table up to the root* (plus ``Ti``
itself).  Looking up a predicate can therefore deliver IDs of any
ancestor level directly -- "climbing" the schema tree in a single index
traversal instead of cascading lookups through per-join indexes.

Layout: a B+-tree keyed on the attribute value whose fixed-width leaf
payload holds, per level, a ``(start, count)`` descriptor into that
level's packed ID-run file.  Runs are written in value order, so a
range predicate touches contiguous run pages.  Root-table indexes have
a single level and degenerate to ordinary B+-trees, exactly as the
paper notes.

Incremental maintenance is **append-only**, as NAND demands: inserts
never restructure the bulk-built tree or its run files.  Each index
carries a flash-resident *delta log* of ``(key, id)`` entries appended
since the build, summarized by a small Bloom filter that lets
equality lookups skip the log when the key was never appended.
Ancestor sublists are not materialized for delta entries; instead the
catalog records, per table, which *new* parent rows reference each
child id (the fk delta), and :meth:`lookup_all` climbs matching ids
through those edges at query time.
"""

from __future__ import annotations

import struct
from itertools import chain, groupby
from operator import itemgetter
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from repro.errors import IndexError_
from repro.flash.constants import ID_SIZE
from repro.flash.store import FlashFile, FlashStore
from repro.hardware.ram import SecureRam
from repro.index.bloom import BloomFilter
from repro.index.btree import BPlusTree
from repro.index.keys import KeyCodec
from repro.predicate import Predicate
from repro.storage.codec import ColumnType
from repro.storage.heap import append_fixed_record
from repro.storage.runs import U32FileBuilder, U32View, intersect_sorted

_DESC = struct.Struct("<II")  # (start u32, count u32) per level
_DESC_W = _DESC.size

#: delta-key Bloom sizing: small, persistent, grown by rebuild-on-overflow
_DELTA_BLOOM_ITEMS = 256

#: ``fk_deltas[child_table][child_id]`` = new parent ids appended since
#: the build (maintained by the catalog, consumed by lookups)
FkDeltas = Dict[str, Dict[int, List[int]]]


class ClimbingIndex:
    """Value -> per-level sorted ID sublists, on flash."""

    def __init__(self, name: str, levels: Sequence[str], key_codec: KeyCodec,
                 btree: BPlusTree, run_files: Dict[str, FlashFile],
                 store: FlashStore):
        self.name = name
        self.levels = list(levels)        # levels[0] is the indexed table
        self.key_codec = key_codec
        self.btree = btree
        self._runs = run_files            # one u32 run file per level
        self.n_entries = btree.n_entries
        self._store = store
        # append-only delta: _delta, (encoded key, own id) entries since
        # the build; _delta_file, their flash log, created on first
        # append; _delta_bloom, the filter over their keys
        self._replay_delta(())

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, store: FlashStore, name: str,
              column_type: ColumnType,
              levels: Sequence[str],
              items: Iterable[Tuple[object, int]],
              ancestor_ids: Dict[str, Dict[int, Sequence[int]]],
              page_size: int) -> "ClimbingIndex":
        """Build an index over ``items`` = (value, id-of-levels[0]) pairs.

        ``ancestor_ids[level][id]`` lists, sorted, the IDs of ``level``
        whose foreign-key chain reaches the ``levels[0]`` tuple ``id``.
        Entries for ``levels[0]`` itself are the ids of the matching
        tuples and need no mapping.

        Each value is encoded once; one sort of ``(key, id)`` pairs
        orders the entries and, within one key, its ids.
        """
        levels = list(levels)
        if not levels:
            raise IndexError_("climbing index needs at least one level")
        for level in levels[1:]:
            if level not in ancestor_ids:
                raise IndexError_(f"missing ancestor id map for {level!r}")
        key_codec = KeyCodec(column_type)
        encode = key_codec.encode

        builders = [U32FileBuilder(store, name=f"ci_{name}_runs_{level}")
                    for level in levels]
        own = builders[0]
        above = list(zip(builders[1:], (ancestor_ids[level]
                                        for level in levels[1:])))
        pairs = sorted([(encode(value), rid) for value, rid in items])
        entries: List[Tuple[bytes, bytes]] = []
        for key_bytes, group in groupby(pairs, key=itemgetter(0)):
            ids = [rid for _, rid in group]
            payload = _DESC.pack(own.mark(), len(ids))
            own.append_words(ids)
            for builder, mapping in above:
                run = (mapping.get(ids[0], ()) if len(ids) == 1 else
                       sorted(chain.from_iterable(
                           mapping.get(i, ()) for i in ids)))
                payload += _DESC.pack(builder.mark(), len(run))
                builder.append_words(run)
            entries.append((key_bytes, payload))

        run_files = {level: builder.finish().file
                     for level, builder in zip(levels, builders)}
        btree = BPlusTree.bulk_build(
            store, f"ci_{name}_tree", entries,
            key_width=key_codec.width,
            payload_width=_DESC_W * len(levels),
            page_size=page_size,
        )
        return cls(name, levels, key_codec, btree, run_files, store)

    # ------------------------------------------------------------------
    # savepoints
    # ------------------------------------------------------------------
    def _replay_delta(self, entries: Sequence[Tuple[bytes, int]]) -> None:
        """Make ``entries`` the delta log's in-RAM state.  Replaying the
        appends through :meth:`_bloom_add` reproduces the delta-key
        Bloom filter bit for bit, every rebuild-on-overflow doubling
        included; the flash file exists exactly while the log is
        non-empty (:meth:`append` creates it)."""
        self._delta = []
        self._delta_bloom = None
        for key, own_id in entries:
            self._delta.append((key, own_id))
            self._bloom_add(key)
        self._delta_file = (self._store.get(f"ci_{self.name}_delta")
                            if entries else None)

    def savepoint(self) -> int:
        """What :meth:`rollback` needs: the delta log's length."""
        return len(self._delta)

    def rollback(self, savepoint: int) -> None:
        """Forget the entries appended since :meth:`savepoint` (their
        flash pages are the statement journal's to truncate)."""
        if len(self._delta) != savepoint:
            self._replay_delta(self._delta[:savepoint])
        elif not savepoint:
            # a first append that died before its entry was recorded
            # may have created the file; the journal frees it
            self._delta_file = None

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def _level_pos(self, level: str) -> int:
        try:
            return self.levels.index(level)
        except ValueError:
            raise IndexError_(
                f"index {self.name!r} cannot climb to {level!r}; "
                f"levels: {self.levels}"
            ) from None

    def _view(self, payload: bytes, level_pos: int, level: str) -> U32View:
        off = level_pos * _DESC_W
        start = int.from_bytes(payload[off:off + 4], "little")
        count = int.from_bytes(payload[off + 4:off + 8], "little")
        return U32View(self._runs[level], start, count)

    def lookup(self, predicate: Predicate, level: str,
               ram: Optional[SecureRam] = None) -> List[U32View]:
        """Sublists of ``level`` IDs for entries matching ``predicate``.

        Returns one sorted sublist per matching index entry; equality
        predicates yield at most one, range predicates arbitrarily many
        (the Merge operator unions them).  Covers only the bulk-built
        entries -- :meth:`lookup_all` adds appended rows.
        """
        pos = self._level_pos(level)
        keyed = predicate.map(self.key_codec.encode)
        return [self._view(p, pos, level)
                for p in self._matching_payloads(keyed, ram)]

    def scan_level(self, level: str, ram: Optional[SecureRam] = None,
                   reverse: bool = False) -> Iterator[U32View]:
        """All of ``level``'s sublists, in indexed-value order.

        Runs are written in value order at build time, so streaming the
        sublists entry by entry delivers ``level`` IDs ordered by the
        indexed attribute -- the sort-avoidance path of ``ORDER BY``.
        ``reverse=True`` walks the leaves backwards (descending values);
        ids *within* one sublist stay ascending, which is exactly the
        stable tie-break on the anchor id that the sort operators use.

        Only valid while the index has no delta log (appended rows are
        not value-ordered); callers must check :attr:`delta_entries`.
        """
        pos = self._level_pos(level)
        entries = (self.btree.scan_reverse(ram) if reverse
                   else self.btree.range(ram=ram))
        for _, payload in entries:
            yield self._view(payload, pos, level)

    # ------------------------------------------------------------------
    # append-only maintenance
    # ------------------------------------------------------------------
    @property
    def delta_entries(self) -> int:
        """Entries appended since the bulk build."""
        return len(self._delta)

    @property
    def delta_log_pages(self) -> int:
        """Flash pages an exhaustive delta-log scan touches (cost model)."""
        if self._delta_file is None:
            return 0
        return self._delta_file.n_pages

    @property
    def delta_log_bytes(self) -> int:
        """Flash bytes the delta log occupies (compaction reporting)."""
        if self._delta_file is None:
            return 0
        return self._delta_file.n_bytes

    @property
    def delta_bloom_fp(self) -> float:
        """Expected false-positive rate of the delta-key Bloom filter:
        the probability an equality lookup scans the delta log for a
        key that was never appended (cost-model input)."""
        if self._delta_bloom is None:
            return 0.0
        return self._delta_bloom.expected_fp_rate

    def append(self, value, own_id: int) -> None:
        """Record one newly inserted ``(value, levels[0]-id)`` pair.

        The entry goes to the tail of the flash delta log (one page
        touched) and into the delta-key Bloom filter; the bulk-built
        tree and run files are never rewritten.  Ancestor ids are not
        stored: parents of a new row are by definition inserted later,
        and :meth:`lookup_all` finds them through the catalog's fk
        deltas.
        """
        key = self.key_codec.encode(value)
        entry = key + int(own_id).to_bytes(ID_SIZE, "little")
        if self._delta_file is None:
            self._delta_file = self._store.create(f"ci_{self.name}_delta")
        append_fixed_record(self._delta_file, entry, len(self._delta),
                            self._store.ftl.params.page_size)
        self._delta.append((key, own_id))
        self._bloom_add(key)

    def _bloom_add(self, key: bytes) -> None:
        """Track delta keys; rebuild a doubled filter on overflow."""
        bloom = self._delta_bloom
        if bloom is None or bloom.count_added >= bloom.n_items:
            size = _DELTA_BLOOM_ITEMS
            while size <= len(self._delta):
                size *= 2
            bloom = BloomFilter(None, size, label=f"ci {self.name} delta")
            for k, _ in self._delta:
                bloom.add(int.from_bytes(k, "big"))
            self._delta_bloom = bloom
            return
        bloom.add(int.from_bytes(key, "big"))

    def _bloom_may_contain(self, key: bytes) -> bool:
        if self._delta_bloom is None:
            return False
        return int.from_bytes(key, "big") in self._delta_bloom

    def _delta_matches(self, keyed: Predicate) -> List[int]:
        """Own-table ids of delta entries satisfying ``keyed``, a
        predicate over encoded keys (the encoding preserves order).

        Equality and IN predicates consult the delta-key Bloom filter
        first, skipping the log scan entirely when no sought key was
        ever appended; otherwise the whole log is scanned (it is small
        between compacting rebuilds), charging its pages.
        """
        if not self._delta:
            return []
        sought = keyed.points()
        if sought is not None and not any(
                map(self._bloom_may_contain, sought)):
            return []
        for page in range(self._delta_file.n_pages):
            self._delta_file.read_page(page)
        match = keyed.matcher()
        return [own_id for key, own_id in self._delta if match(key)]

    def lookup_all(self, predicate: Predicate, level: str,
                   ram: Optional[SecureRam] = None,
                   fk_deltas: Optional[FkDeltas] = None
                   ) -> Tuple[List[U32View], List[int]]:
        """Like :meth:`lookup`, plus ids contributed since the build.

        Returns ``(base sublists, extra ids)``: the bulk-built runs for
        ``level`` and a sorted list of ``level`` ids reachable only
        through appended rows.  Extra ids come from (a) delta entries
        matching the predicate, climbed upward, and (b) *new* parent
        rows referencing old matching rows, found by climbing the base
        ids through ``fk_deltas`` edge by edge.  With no DML since the
        build this degenerates to :meth:`lookup` at zero extra cost.
        """
        pos = self._level_pos(level)
        keyed = predicate.map(self.key_codec.encode)
        payloads: List[bytes] = self._matching_payloads(keyed, ram)
        views = [self._view(p, pos, level) for p in payloads]
        delta_ids = self._delta_matches(keyed)
        if pos == 0:
            return views, sorted(set(delta_ids))
        fk_deltas = fk_deltas or {}
        if not any(fk_deltas.get(self.levels[i]) for i in range(pos)):
            # no new edges below the target level: appended rows cannot
            # have reached it (their parents do not exist yet)
            return views, []
        new_ids: Set[int] = set(delta_ids)
        for i in range(pos):
            edge = fk_deltas.get(self.levels[i]) or {}
            if not edge:
                new_ids = set()
                continue
            level_views = [self._view(p, i, self.levels[i])
                           for p in payloads]
            new_ids = self._climb_edge(edge, new_ids, level_views, ram)
        return views, sorted(new_ids)

    @staticmethod
    def _climb_edge(edge: Dict[int, List[int]], new_ids: Set[int],
                    level_views: List[U32View],
                    ram: Optional[SecureRam]) -> Set[int]:
        """New parent ids whose (old or new) child matches the lookup.

        A child matches when it is among the already-climbed new ids
        or inside one of the base sublists at this level.  Few edges
        exist between compacting rebuilds, so each candidate is
        binary-searched in the sorted sublists; when the edge grows
        larger than that probing cost, one sequential scan wins.
        """
        candidates = [c for c in edge if c not in new_ids]
        out: Set[int] = {p for c in edge if c in new_ids
                         for p in edge[c]}
        if not candidates:
            return out
        total_ids = sum(v.count for v in level_views)
        probe_reads = len(candidates) * sum(
            v.count.bit_length() for v in level_views
        )
        if probe_reads <= total_ids:
            for child in candidates:
                if any(v.contains(child) for v in level_views):
                    out.update(edge[child])
            return out
        base: Set[int] = set()
        for view in level_views:
            # same sequential reads as iterate(), one page per update
            for page in view.iter_pages(ram):
                base.update(page)
        for child in intersect_sorted(candidates, base):
            out.update(edge[child])
        return out

    def _matching_payloads(self, keyed: Predicate,
                           ram: Optional[SecureRam] = None) -> List[bytes]:
        """Leaf payloads of base entries matching ``keyed`` (a
        predicate over encoded keys): one descent per sought key, or
        one descent plus a leaf scan of the range."""
        keys = keyed.points()
        if keys is not None:
            return [p for _, p in self.btree.lookup_many(sorted(keys), ram)
                    if p is not None]
        lo, lo_inc, hi, hi_inc = keyed.bounds()
        return [p for _, p in self.btree.range(lo, hi, lo_inc, hi_inc,
                                               ram)]

    # ------------------------------------------------------------------
    def storage_files(self):
        """The flash files behind this index: tree, runs, delta log.

        Compaction streams them (charged reads) when folding the index
        into a freshly bulk-built replacement.
        """
        files = [self.btree.file]
        files.extend(self._runs.values())
        if self._delta_file is not None:
            files.append(self._delta_file)
        return files

    def storage_bytes(self) -> int:
        """Flash bytes occupied by the tree, run files and delta log."""
        return sum(f.n_bytes for f in self.storage_files())

    def free(self) -> None:
        self.btree.free()
        for run_file in self._runs.values():
            run_file.free()
        if self._delta_file is not None:
            self._delta_file.free()
            self._delta_file = None
