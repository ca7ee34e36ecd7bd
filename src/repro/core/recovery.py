"""Crash recovery: statement journals, idempotency, recovery reports.

Three small pieces turn a power loss mid-DML from "silently
inconsistent token" into "milliseconds of deterministic cleanup":

* :class:`StatementJournal` -- armed around every INSERT/DELETE.  The
  flash store notifies it after each successful page mutation (append,
  out-of-place rewrite, file create); the engine side is one
  :meth:`SecureCatalog.savepoint
  <repro.core.catalog.SecureCatalog.savepoint>` of the statement's
  table plus Untrusted's row count.  ``rollback()`` undoes the flash
  mutations in reverse order and rolls the catalog back to the
  savepoint, leaving the database exactly at its pre-statement
  generations.  A journal from a *committed* statement is kept until
  the next one so the fleet's check-all / apply-all DML can abort an
  already-applied shard
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

The journal's flash rollback is itself charged I/O (restoring a
rewritten tail page programs a new out-of-place page) -- recovery work
is real work on a real token.
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

    def to_meta(self) -> List[List[Any]]:
        """JSON-able form for the durable image."""
        return [[k, v] for k, v in self._entries.items()]

    @classmethod
    def from_meta(cls, entries: Optional[List[List[Any]]]
                  ) -> "IdempotencyLedger":
        """Rebuild from :meth:`to_meta` output (None -> empty)."""
        ledger = cls()
        for key, response in entries or []:
            ledger.record(key, response)
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

    Armed before the statement ``bound`` mutates anything: takes a
    catalog savepoint of the statement's table -- which records only
    what that kind of statement can change -- notes Untrusted's row
    count, and registers itself with the token's flash store, which
    calls :meth:`note_append` / :meth:`note_rewrite` /
    :meth:`note_create` after each successful page mutation.
    :meth:`rollback` replays the flash ops in reverse and rolls the
    catalog back.  Ops against files that no longer exist (a
    statement's temporary merge runs) are skipped -- they were created
    and freed inside the journaled window.

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
        # (op, file_name, *details), chronological
        self.ops: List[Tuple] = []
        self._savepoint = db.catalog.savepoint(
            self.table, deleting=isinstance(bound, BoundDelete))
        self._untrusted_rows = db.untrusted.n_rows(self.table)
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
        self.db.keep_journal(self)

    # ------------------------------------------------------------------
    # rollback
    # ------------------------------------------------------------------
    def rollback(self) -> None:
        """Undo the statement: flash ops in reverse, then the catalog
        savepoint and Untrusted's appended rows.  A rollback in progress
        is uncommitted and an op leaves the log once undone, so after a
        power cut (page rewrites program flash) recover() resumes it."""
        self.committed = False
        self.detach()
        store = self.db.token.store
        while self.ops:
            op = self.ops[-1]
            if store.exists(op[1]):   # else created and freed inside
                file = store.get(op[1])
                if op[0] == "append":
                    file.truncate_last()
                elif op[0] == "rewrite":
                    file.write_page(op[2], op[3])
                else:  # create
                    file.free()
            self.ops.pop()
        self.db.catalog.rollback(self._savepoint)
        self.db.untrusted.truncate(self.table, self._untrusted_rows)
