"""Crash recovery: statement journals, idempotency, recovery reports.

Three small pieces turn a power loss mid-DML from "silently
inconsistent token" into "milliseconds of deterministic cleanup":

* :class:`StatementJournal` -- armed around every INSERT/DELETE.  A
  statement only appends to flash, so its undo is a cut back to the
  lengths it found: each file reports itself before it mutates (the
  journal keeps its page count and tail fill from the first report),
  the store each file it creates; the engine side is one
  :meth:`SecureCatalog.savepoint
  <repro.core.catalog.SecureCatalog.savepoint>` of the statement's
  table plus Untrusted's row count.  ``rollback()`` frees the created
  files, cuts every other touched file back to its mark and rolls the
  catalog back to the savepoint, leaving the database exactly at its
  pre-statement generations.  A journal from a *committed* statement
  is kept until the next one so the fleet's check-all / apply-all DML
  can abort an already-applied shard
  (:meth:`~repro.core.ghostdb.GhostDB.undo_last_dml`).

* :class:`IdempotencyLedger` -- the exactly-once half of the retry
  contract.  Each service write records its DML response under
  the client-supplied idempotency key; a retried statement whose key
  is already present gets the recorded response back instead of a
  second application.  The ledger is bounded (FIFO eviction) and
  persisted in the durable image, so the contract survives a crash and
  restore.

* :class:`RecoveryReport` -- what
  :meth:`~repro.core.ghostdb.GhostDB.recover` did: power cycle,
  compactions aborted, statement rolled back, corrupt pages found by
  the checksum scan.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.sql.binder import BoundDelete, BoundInsert

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ghostdb import GhostDB
    from repro.flash.store import FlashFile

#: FIFO capacity of the idempotency ledger (responses, not bytes)
IKEY_CAPACITY = 4096


class IdempotencyLedger:
    """Bounded ikey -> recorded-response map (exactly-once DML)."""

    def __init__(self):
        self.capacity = IKEY_CAPACITY
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
    """Undo record for one DML statement: lengths, not old bytes.

    Armed before the statement ``bound`` mutates anything: takes a
    catalog savepoint of the statement's table -- which records only
    what that kind of statement can change -- notes Untrusted's row
    count, and registers itself with the token's flash store.  A file
    calls :meth:`mark` before each mutation (the first call keeps the
    file's ``(pages, tail fill)``) and the store calls
    :meth:`note_create` for each file it creates.  :meth:`rollback`
    frees the created files still alive, cuts every other marked file
    back to its mark and rolls the catalog back.

    Used as a context manager around the mutation: leaving the block
    stops the flash notifications and hands the journal to the database
    (:meth:`~repro.core.ghostdb.GhostDB.keep_journal`) -- *committed*
    on a clean exit, still armed when the statement died mid-flight
    (``recover()`` rolls that one back).
    """

    def __init__(self, db: "GhostDB",
                 bound: Union[BoundInsert, BoundDelete]):
        self.db = db
        self.table = bound.table
        self.committed = False
        # file name -> (pages, tail fill) before its first mutation
        self.marks: Dict[str, Tuple[int, int]] = {}
        self.created: List[str] = []
        self._savepoint = db.catalog.savepoint(
            self.table, deleting=isinstance(bound, BoundDelete))
        self._untrusted_rows = db.untrusted.n_rows(self.table)
        db.token.store.journal = self

    # ------------------------------------------------------------------
    # flash-store notification hooks
    # ------------------------------------------------------------------
    def mark(self, file: "FlashFile") -> None:
        """``file`` is about to mutate: keep its first mark."""
        if file.name not in self.marks:
            self.marks[file.name] = (file.n_pages, file.tail_fill)

    def note_create(self, file: "FlashFile") -> None:
        """``file`` was created."""
        self.created.append(file.name)

    def detach(self) -> None:
        """Stop receiving flash notifications (keeps the marks)."""
        if self.db.token.store.journal is self:
            self.db.token.store.journal = None

    def __enter__(self) -> "StatementJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()
        self.committed = exc_type is None
        self.db.keep_journal(self)

    # ------------------------------------------------------------------
    # rollback
    # ------------------------------------------------------------------
    def rollback(self) -> None:
        """Undo the statement: free the files it created, cut the
        others back to their marks, then roll back the catalog
        savepoint and Untrusted's appended rows.  Files no longer alive
        (a statement's temporary merge runs) are skipped.  A rollback
        in progress is uncommitted and every step of it is idempotent,
        so after a power cut (a cut re-programs a tail page) recover()
        simply runs it again."""
        self.committed = False
        self.detach()
        store = self.db.token.store
        for name in self.created:
            if store.exists(name):
                store.get(name).free()
        for name, (n_pages, tail_fill) in self.marks.items():
            if store.exists(name):    # else created, or freed inside
                store.get(name).cut(n_pages, tail_fill)
        self.db.catalog.rollback(self._savepoint)
        self.db.untrusted.truncate(self.table, self._untrusted_rows)
