"""Crash recovery: statement journals, idempotency, recovery reports.

Three small pieces turn a power loss mid-DML from "silently
inconsistent token" into "milliseconds of deterministic cleanup":

* :class:`StatementJournal` -- armed around every INSERT/DELETE.  The
  flash store notifies it after each successful page mutation (append,
  out-of-place rewrite, file create) and the journal snapshots the
  cheap engine-side state (row counts, tombstone sets, fk-delta
  shapes, generations) plus the statement table's statistics sketches
  and index delta state.  ``rollback()`` undoes the flash mutations in
  reverse order and restores the engine snapshot, leaving the database
  exactly at its pre-statement generations.  A journal from a
  *committed* statement is kept until the next one so the fleet's
  two-phase DML can abort an already-applied shard
  (:meth:`~repro.core.ghostdb.GhostDB.undo_last_dml`).

* :class:`IdempotencyLedger` -- the exactly-once half of the retry
  contract.  The service writer lane records each DML response under
  the client-supplied idempotency key; a retried statement whose key
  is already present gets the recorded response back instead of a
  second application.  The ledger is bounded (FIFO eviction) and
  persisted in the durable image, so the contract survives a crash and
  restore.

* :class:`RecoveryReport` -- what
  :meth:`~repro.core.ghostdb.GhostDB.recover` did: power cycle,
  compactions aborted, statement rolled back, corrupt pages found by
  the checksum scan.

The journal's flash rollback is itself charged I/O (restoring a
rewritten tail page programs a new out-of-place page) -- recovery work
is real work on a real token.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ghostdb import GhostDB
    from repro.flash.store import FlashFile

#: FIFO capacity of the idempotency ledger (responses, not bytes)
IKEY_CAPACITY = 4096


class IdempotencyLedger:
    """Bounded ikey -> recorded-response map (exactly-once DML)."""

    def __init__(self, capacity: int = IKEY_CAPACITY):
        self.capacity = capacity
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    def seen(self, ikey: Optional[str]) -> Optional[Dict[str, Any]]:
        """The recorded response for ``ikey``, or None."""
        if ikey is None:
            return None
        return self._entries.get(ikey)

    def record(self, ikey: Optional[str],
               response: Dict[str, Any]) -> None:
        """Record ``response`` under ``ikey`` (evicts FIFO past capacity)."""
        if ikey is None:
            return
        self._entries[ikey] = response
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def to_meta(self) -> List[List[Any]]:
        """JSON-able form for the durable image."""
        return [[k, v] for k, v in self._entries.items()]

    @classmethod
    def from_meta(cls, entries: Optional[List[List[Any]]],
                  capacity: int = IKEY_CAPACITY) -> "IdempotencyLedger":
        """Rebuild from :meth:`to_meta` output (None -> empty)."""
        ledger = cls(capacity)
        for key, response in entries or []:
            ledger._entries[key] = response
        return ledger


@dataclass
class RecoveryReport:
    """What one :meth:`GhostDB.recover` call found and fixed."""

    power_cycled: bool = False
    compactions_aborted: List[str] = field(default_factory=list)
    rolled_back_table: Optional[str] = None
    corrupt_pages: List[Tuple[int, int]] = field(default_factory=list)

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = []
        if self.power_cycled:
            parts.append("power-cycled")
        if self.compactions_aborted:
            parts.append(
                f"aborted compaction of {sorted(self.compactions_aborted)}"
            )
        if self.rolled_back_table is not None:
            parts.append(
                f"rolled back in-flight DML on {self.rolled_back_table!r}"
            )
        if self.corrupt_pages:
            parts.append(f"{len(self.corrupt_pages)} corrupt page(s)")
        return "recovery: " + (", ".join(parts) if parts else "clean")


class StatementJournal:
    """Undo log for one DML statement.

    Armed before the statement mutates anything: snapshots the
    engine-side state and registers itself with the token's flash
    store, which calls :meth:`note_append` / :meth:`note_rewrite` /
    :meth:`note_create` after each successful page mutation.
    :meth:`rollback` replays the flash ops in reverse and restores the
    snapshot.  Ops against files that no longer exist (a statement's
    temporary merge runs) are skipped -- they were created and freed
    inside the journaled window.

    Used as a context manager around the mutation: leaving the block
    stops the flash notifications and parks the journal on
    ``db._journal`` -- *committed* on a clean exit, still armed when
    the statement died mid-flight (``recover()`` rolls that one back).
    """

    def __init__(self, db: "GhostDB", table: str):
        self.db = db
        self.table = table
        self.committed = False
        self.rolled_back = False
        # (op, file_name, *details), chronological
        self.ops: List[Tuple] = []
        self._capture()
        db.token.store.journal = self

    # ------------------------------------------------------------------
    # flash-store notification hooks
    # ------------------------------------------------------------------
    def note_append(self, file: "FlashFile") -> None:
        """A page was appended to ``file``."""
        self.ops.append(("append", file.name))

    def note_rewrite(self, file: "FlashFile", index: int,
                     old: bytes) -> None:
        """Page ``index`` of ``file`` was rewritten (was ``old``)."""
        self.ops.append(("rewrite", file.name, index, old))

    def note_create(self, file: "FlashFile") -> None:
        """``file`` was created."""
        self.ops.append(("create", file.name))

    def detach(self) -> None:
        """Stop receiving flash notifications (keeps the undo log)."""
        if self.db.token.store.journal is self:
            self.db.token.store.journal = None

    def __enter__(self) -> "StatementJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()
        self.committed = exc_type is None
        self.db._journal = self

    # ------------------------------------------------------------------
    # engine-side snapshot
    # ------------------------------------------------------------------
    def _capture(self) -> None:
        cat = self.db.catalog
        self._scalars: Dict[str, Dict[str, Any]] = {}
        for t in cat.schema.tables:
            img = cat.images.get(t)
            skt = cat.skts.get(t)
            self._scalars[t] = {
                "image_rows": img.n_rows if img is not None else None,
                "heap_rows": (img.heap.n_rows
                              if img is not None and img.heap is not None
                              else None),
                "skt_rows": skt.heap.n_rows if skt is not None else None,
                "raw_len": len(cat.raw_rows.get(t, ())),
                "tombstones": set(cat.tombstones[t]),
                "fk_lens": {cid: len(parents)
                            for cid, parents in cat.fk_deltas[t].items()},
                "untrusted_len": self.db.untrusted.n_rows(t),
                "data_gen": cat.data_generations[t],
                "stats_gen": cat.stats_generations[t],
            }
        self._tombstone_log_keys = set(cat._tombstone_logs)
        stats = cat.stats.get(self.table)
        self._stats = stats.copy() if stats is not None else None
        self._indexes: Dict[Tuple[str, Optional[str]], Dict[str, Any]] = {}
        for (tbl, col), ci in cat.attr_indexes.items():
            if tbl == self.table:
                self._indexes[(tbl, col)] = self._capture_index(ci)
        ci = cat.id_indexes.get(self.table)
        if ci is not None:
            self._indexes[(self.table, None)] = self._capture_index(ci)

    @staticmethod
    def _capture_index(ci) -> Dict[str, Any]:
        return {
            "delta_len": len(ci._delta),
            "bloom": (ci._delta_bloom.copy()
                      if ci._delta_bloom is not None else None),
            "had_delta_file": ci._delta_file is not None,
        }

    # ------------------------------------------------------------------
    # rollback
    # ------------------------------------------------------------------
    def rollback(self) -> None:
        """Undo the statement: flash ops in reverse, then the snapshot."""
        if self.rolled_back:
            return
        self.detach()
        store = self.db.token.store
        for op in reversed(self.ops):
            name = op[1]
            if not store.exists(name):
                continue  # created and freed inside the statement
            file = store.get(name)
            if op[0] == "append":
                file.truncate_last()
            elif op[0] == "rewrite":
                file.write_page(op[2], op[3])
            else:  # create
                file.free()
        self._restore_engine()
        self.rolled_back = True

    def _restore_engine(self) -> None:
        cat = self.db.catalog
        for t, saved in self._scalars.items():
            img = cat.images.get(t)
            if img is not None and saved["image_rows"] is not None:
                img.n_rows = saved["image_rows"]
                if img.heap is not None and saved["heap_rows"] is not None:
                    img.heap.n_rows = saved["heap_rows"]
            skt = cat.skts.get(t)
            if skt is not None and saved["skt_rows"] is not None:
                skt.heap.n_rows = saved["skt_rows"]
            raw = cat.raw_rows.get(t)
            if raw is not None:
                del raw[saved["raw_len"]:]
            # the reference oracle shares the tombstone set: mutate in
            # place, never rebind
            dead = cat.tombstones[t]
            dead.clear()
            dead.update(saved["tombstones"])
            deltas = cat.fk_deltas[t]
            for cid in list(deltas):
                keep = saved["fk_lens"].get(cid)
                if keep is None:
                    del deltas[cid]
                else:
                    del deltas[cid][keep:]
            self.db.untrusted.truncate(t, saved["untrusted_len"])
            cat.data_generations[t] = saved["data_gen"]
            cat.stats_generations[t] = saved["stats_gen"]
        for t in list(cat._tombstone_logs):
            if t not in self._tombstone_log_keys:
                # its flash file was freed by the create-op rollback
                del cat._tombstone_logs[t]
        if self._stats is not None:
            cat.stats[self.table] = self._stats
        for (tbl, col), saved in self._indexes.items():
            ci = (cat.id_indexes[tbl] if col is None
                  else cat.attr_indexes[(tbl, col)])
            del ci._delta[saved["delta_len"]:]
            ci._delta_bloom = saved["bloom"]
            if not saved["had_delta_file"]:
                ci._delta_file = None
