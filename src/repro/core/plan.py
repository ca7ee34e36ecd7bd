"""Plan representation: per-predicate strategies and QEP structures.

The planner assigns every *Visible* selection one of the paper's
strategies (section 3.3 / figure 6):

* ``PRE``  -- Pre-Filter: climb the Vis IDs through the ``Ti.id``
  climbing index and merge them with the hidden groups at the anchor.
* ``POST`` -- Post-Filter: build a Bloom filter over the Vis IDs and
  probe the SJoin output.
* ``POST_SELECT`` -- exact post-selection: keep the Vis ID list and
  filter the SJoin output in (possibly many) exact passes.
* ``NOFILTER`` -- postpone the selection entirely to projection time.

Each strategy can additionally be *Cross-filtered*: the Vis IDs are
first intersected with the hidden selections' sublists at the Vis
table's own level, shrinking whatever the strategy consumes.

Hidden selections always go through climbing-index lookups.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

from repro.sql.binder import BoundOrderItem, BoundQuery
from repro.storage.runs import U32View

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.costmodel import CostReport, OrderReport


class VisStrategy(enum.Enum):
    """The paper's four strategies for one visible selection."""

    PRE = "pre"
    POST = "post"
    POST_SELECT = "post-select"
    NOFILTER = "nofilter"


@dataclass
class VisPlan:
    """How one table's visible selection is folded into the QEPSJ."""

    table: str
    strategy: VisStrategy
    cross: bool = False

    def describe(self) -> str:
        """The strategy's display name, e.g. ``Cross-Pre-Filter``."""
        prefix = "Cross-" if self.cross else ""
        names = {
            VisStrategy.PRE: "Pre-Filter",
            VisStrategy.POST: "Post-Filter",
            VisStrategy.POST_SELECT: "Post-Select",
            VisStrategy.NOFILTER: "NoFilter",
        }
        return prefix + names[self.strategy]


class ProjectionMode(enum.Enum):
    """Projection algorithm variants (paper Figures 12/13)."""

    PROJECT = "project"          # the paper's Project algorithm (Fig. 5)
    PROJECT_NOBF = "project-nobf"  # Project without Bloom pre-filtering
    BRUTE_FORCE = "brute-force"  # random accesses per QEPSJ result row


class SortMethod(enum.Enum):
    """How an ``ORDER BY`` / ``LIMIT`` clause is executed on the token.

    * ``EXTERNAL`` -- RAM-bounded external merge sort: value-ordered
      record runs spilled to flash, merged under the paper's
      one-buffer-per-open-run accounting.
    * ``TOP_K``   -- a bounded heap of the best ``offset+limit`` records
      held entirely in (accounted) secure RAM; chosen when the LIMIT is
      small enough to fit.
    * ``INDEX_ORDER`` -- sort avoidance: the ORDER BY key's climbing
      index is scanned in value order and result rows are emitted as
      their ids appear; no sort at all, and LIMIT stops the scan early.
    * ``TRUNCATE`` -- plain ``LIMIT``/``OFFSET`` with no ORDER BY: the
      result (already in anchor-id order) is sliced.
    """

    EXTERNAL = "external-sort"
    TOP_K = "top-k-heap"
    INDEX_ORDER = "index-order"
    TRUNCATE = "truncate"


@dataclass
class OrderPlan:
    """The decided ordering step of one query plan.

    ``key_positions`` locate the ORDER BY values inside the (possibly
    internally extended) projected row; ``aid_position`` locates the
    anchor id that :class:`~repro.core.sort.IndexOrderScan` maps result
    rows by.  For ``INDEX_ORDER``, ``index_table``/``index_column``
    name the climbing index whose value order is reused.
    """

    keys: Tuple[BoundOrderItem, ...]
    method: SortMethod
    limit: Optional[int] = None
    offset: int = 0
    key_positions: Tuple[int, ...] = ()
    aid_position: Optional[int] = None
    index_table: Optional[str] = None
    index_column: Optional[str] = None
    #: per-method estimates when the planner chose cost-based
    report: Optional["OrderReport"] = None

    def describe(self) -> str:
        """One ``EXPLAIN`` line: keys, bounds and the chosen method."""
        parts = []
        if self.keys:
            parts.append("by " + ", ".join(k.describe() for k in self.keys))
        if self.limit is not None:
            parts.append(f"limit {self.limit}")
        if self.offset:
            parts.append(f"offset {self.offset}")
        line = f"order: {' '.join(parts)} -> {self.method.value}"
        if self.method is SortMethod.INDEX_ORDER:
            line += f" ({self.index_table}.{self.index_column})"
        return line


@dataclass
class QueryPlan:
    """A fully decided execution plan for one bound query."""

    bound: BoundQuery
    vis_plans: Dict[str, VisPlan] = field(default_factory=dict)
    projection_mode: ProjectionMode = ProjectionMode.PROJECT
    #: how ORDER BY / LIMIT are applied (None when the query has none)
    order: Optional[OrderPlan] = None
    #: candidate costs when the planner chose cost-based (None when a
    #: strategy override forced the decision)
    cost_report: Optional["CostReport"] = None

    def with_bound(self, bound: BoundQuery) -> "QueryPlan":
        """The same strategy decisions applied to another bound query.

        Prepared statements plan once from a template and re-execute
        with fresh parameter values: the per-table strategies and the
        projection mode are reused, only the bound query (carrying the
        concrete predicate values) is swapped.
        """
        if bound is self.bound:
            return self
        return dataclasses.replace(self, bound=bound)

    def describe(self) -> str:
        """Human-readable plan summary (the ``explain`` output)."""
        lines = [f"anchor: {self.bound.anchor}"]
        for sel in self.bound.hidden_selections():
            lines.append(
                f"hidden {sel.table}.{sel.column.name}: climbing index"
            )
        for table, vp in self.vis_plans.items():
            lines.append(f"visible {table}: {vp.describe()}")
        lines.append(f"projection: {self.projection_mode.value}")
        if self.order is not None:
            lines.append(self.order.describe())
        if self.cost_report is not None and self.cost_report.candidates:
            lines.append(self.cost_report.describe())
        if self.order is not None and self.order.report is not None:
            lines.append(self.order.report.describe())
        return "\n".join(lines)


@dataclass
class QepSjResult:
    """Output of the selection-join phase (QEPSJ).

    ``anchor_ids`` is the sorted list/view of anchor-table IDs.  When an
    SJoin was performed, ``columns`` holds one U32 column per reached
    table (including the anchor, at result position order) of identical
    cardinality ``count``.  ``approx_tables`` are tables whose
    membership was Bloom-filtered (false positives possible) or not
    filtered at all -- projection must eliminate them exactly.
    """

    anchor: str
    count: int
    anchor_ids: Optional[U32View] = None
    columns: Optional[Dict[str, U32View]] = None
    approx_tables: Set[str] = field(default_factory=set)

    def free(self) -> None:
        """Release temporary flash files held by the result.

        In first-seen order: the order of frees is the order of the
        FTL's free-page list, which a snapshot persists, so it must
        not depend on object addresses (as iterating a ``set`` would).
        """
        views = [self.anchor_ids] if self.anchor_ids is not None else []
        views.extend((self.columns or {}).values())
        for view in views:
            view.file.free()    # idempotent: shared files free once
