"""The Vis protocol: how Secure obtains Visible data.

This module is the only one that sends anything Secure -> Untrusted:
statement announcements, Vis requests, and the visible halves of
inserted rows (``scripts/check_docs.py`` gates ``to_untrusted``).

``Vis(Q, T, pi)`` is the only operator that crosses the trust boundary.
The Secure token sends a *request* (derived solely from the public
query text) out through the audited channel, Untrusted evaluates the
visible predicates, and the result -- a list of IDs sorted on ``T.id``,
optionally with visible attribute values -- flows back in.  A
statement asks once per table that has a visible selection or a
projected visible column, with ``pi`` complete
(``repro.core.operators.vis_request``), whatever the plan.

Irrelevant visible rows (rows matching the visible predicates but
doomed by hidden ones) cannot be filtered out before reaching Secure
without leaking hidden information, so the transfer is deliberately
oversized; Secure filters them quickly after arrival.  Both directions
are charged at the channel's throughput.

A dedicated channel buffer inside the token receives the download, so
a Vis transfer consumes no secure RAM by itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.flash.constants import ID_SIZE
from repro.hardware.token import SecureToken
from repro.untrusted.engine import UntrustedEngine, VisSelection


@dataclass(frozen=True)
class VisRequest:
    """What Secure asks of Untrusted -- all fields are query-derived."""

    table: str
    predicates: Tuple[VisSelection, ...]
    columns: Tuple[str, ...] = ()

    def wire_size(self) -> int:
        """Approximate request size on the wire, in bytes."""
        size = len(self.table) + 2
        for column, predicate in self.predicates:
            size += len(column) + len(predicate.op) + 12
        size += sum(len(c) + 1 for c in self.columns)
        return size


class VisResult:
    """A Vis download parked in the token's dedicated channel buffer."""

    def __init__(self, ids: List[int], rows: Optional[List[Tuple]] = None):
        self.ids = ids              # sorted on T.id
        self._rows = rows           # (id, col...) tuples, or None

    @property
    def rows(self) -> List[Tuple]:
        """``(id, col...)`` tuples; an id-only result synthesizes
        ``(id,)`` on first use."""
        if self._rows is None:
            self._rows = [(i,) for i in self.ids]
        return self._rows


class VisServer:
    """Couples an :class:`UntrustedEngine` with a token's channel."""

    #: header bytes charged per batched request envelope
    BATCH_HEADER = 2

    def __init__(self, engine: UntrustedEngine, token: SecureToken):
        self.engine = engine
        self.token = token
        self.requests_served = 0
        self.batches_served = 0
        self._row_widths: Dict[Tuple[str, Tuple[str, ...]], int] = {}

    # ------------------------------------------------------------------
    def _row_width(self, table: str, columns: Sequence[str]) -> int:
        """Wire bytes of one ``(id, col...)`` row (kept per request
        shape: the schema is fixed for the engine's lifetime)."""
        key = (table, tuple(columns))
        width = self._row_widths.get(key)
        if width is None:
            widths = {
                c.name: c.type.width
                for c in self.engine.visible_columns(table)
            }
            width = self._row_widths[key] = ID_SIZE + sum(
                widths[c] for c in columns)
        return width

    def _serve(self, request: VisRequest) -> VisResult:
        """Evaluate one request; charges only the inbound transfer."""
        self.requests_served += 1
        ids = self.engine.select_ids(request.table, request.predicates)
        if not request.columns:
            self.token.channel.to_secure(len(ids) * ID_SIZE,
                                         f"Vis({request.table}) ids")
            return VisResult(ids=ids)
        rows = self.engine.project(request.table, ids, request.columns)
        nbytes = len(rows) * self._row_width(request.table, request.columns)
        self.token.channel.to_secure(nbytes, f"Vis({request.table})")
        return VisResult(ids=ids, rows=rows)

    def announce(self, text: str, width: int = 80,
                 nbytes: Optional[int] = None) -> None:
        """Send one statement's public text to Untrusted: the message
        that says which query is posed (``nbytes`` defaults to the
        text's length; the audit description keeps ``width`` chars)."""
        self.token.channel.to_untrusted(
            max(1, len(text)) if nbytes is None else nbytes,
            kind="query", description=text[:width],
        )

    def vis(self, request: VisRequest) -> VisResult:
        """Execute one Vis exchange, charging both channel directions."""
        self.token.channel.to_untrusted(
            request.wire_size(), kind="vis_request",
            description=f"Vis({request.table})",
        )
        return self._serve(request)

    def vis_batch(self, requests: Sequence[VisRequest]) -> List[VisResult]:
        """Serve several Vis requests over one outbound round trip.

        The requests travel in a single audited message (sum of the
        individual wire sizes plus a small envelope), amortizing the
        per-message round-trip cost of repeated-template workloads;
        each result's inbound transfer is still charged individually.
        """
        requests = list(requests)
        if not requests:
            return []
        wire = self.BATCH_HEADER + sum(r.wire_size() for r in requests)
        self.token.channel.to_untrusted(
            wire, kind="vis_request",
            description=f"Vis-batch[{len(requests)}]",
        )
        self.batches_served += 1
        return [self._serve(r) for r in requests]

    def push_rows(self, table: str, visible_rows: Sequence[Tuple]) -> int:
        """Ship the visible halves of inserted rows to Untrusted.

        This is the Vis protocol's only data-bearing outbound message:
        the values are Visible by schema definition (they *live* on
        Untrusted), so sending them reveals nothing hidden.  The
        transfer is charged and audited like any outbound message;
        returns the bytes shipped.
        """
        visible_rows = list(visible_rows)
        columns = [c.name for c in self.engine.visible_columns(table)]
        nbytes = max(1, len(visible_rows)
                     * max(0, self._row_width(table, columns) - ID_SIZE))
        self.token.channel.to_untrusted(
            nbytes, kind="dml_visible",
            description=f"Insert({table}) {len(visible_rows)} rows",
        )
        self.engine.load(table, visible_rows)
        return nbytes

    def push_compaction(self, table: str, dead_ids: Sequence[int]) -> int:
        """Tell Untrusted which visible rows a compaction retires.

        The retired ids are already public: the DELETE statements that
        tombstoned them were announced over this same channel, so the
        id list reveals nothing beyond what Untrusted could derive --
        exactly the disclosure the old full re-provisioning rebuild
        made when it reloaded a shorter visible image.  Charged and
        audited like the INSERT path's visible push.
        """
        dead_ids = sorted(set(dead_ids))
        self.token.channel.to_untrusted(
            max(1, len(dead_ids) * ID_SIZE), kind="dml_visible",
            description=f"Compact({table}) {len(dead_ids)} rows dropped",
        )
        return self.engine.compact(table, dead_ids)
