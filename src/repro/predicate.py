"""The selection predicate ``column op constant``, written down once.

The paper's section 3.3 evaluates one selection on both sides of the
trust boundary -- ``Vis`` on Untrusted, ``CI`` on Secure -- and the
planner's sketches estimate it.  What the seven operators *mean* lives
here and nowhere else: an evaluator asks a :class:`Predicate` for the
derived form that suits its data structure (a closure for a scan,
points or an interval for a sorted structure, the same predicate over
encoded keys) instead of testing ``op`` itself.

The class knows nothing about column types: the binder types every
constant (``typed`` on the types of :mod:`repro.storage.codec`) before
a predicate reaches an evaluator.  The test oracle
(:meth:`repro.core.reference.ReferenceEngine._matches`) deliberately
keeps its own copy of the operator table -- it is the reference this
module is tested against.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Tuple

from repro.errors import IndexError_

OPS = ("=", "<", "<=", ">", ">=", "between", "in")

#: ``x op v`` as ``flipped(v, x)``: binding the constant first makes
#: the matcher a C-level partial, no Python frame per value
_FLIPPED = {"=": operator.eq, "<": operator.gt, "<=": operator.ge,
            ">": operator.lt, ">=": operator.le}


@dataclass(frozen=True)
class Predicate:
    """``op`` with its constants: ``value`` (and ``value2`` for
    ``between``), or the tuple ``values`` for ``in``.  Immutable and
    hashable, compared by value."""

    op: str
    value: Any = None
    value2: Any = None
    values: Optional[Tuple] = None

    def __post_init__(self):
        if self.op not in OPS:
            raise IndexError_(f"unsupported predicate operator {self.op!r}")
        if self.op == "in":
            if self.values is None:
                raise IndexError_("'in' predicate without values")
            if type(self.values) is not tuple:
                object.__setattr__(self, "values", tuple(self.values))

    def constants(self) -> Tuple:
        """Every constant, in statement order."""
        if self.op == "in":
            return self.values
        if self.op == "between":
            return (self.value, self.value2)
        return (self.value,)

    def map(self, fn: Callable[[Any], Any]) -> "Predicate":
        """The same operator over ``fn(constant)`` for every constant
        (typing, ``?`` substitution, order-preserving key encoding)."""
        if self.op == "in":
            return Predicate("in", values=tuple(map(fn, self.values)))
        if self.op == "between":
            return Predicate("between", fn(self.value), fn(self.value2))
        return Predicate(self.op, fn(self.value))

    def matcher(self) -> Callable[[Any], bool]:
        """``value -> bool``, specialised on the operator: a scan pays
        one call per value and dispatches nothing."""
        if self.op == "in":
            return frozenset(self.values).__contains__
        if self.op == "between":
            lo, hi = self.value, self.value2
            return lambda x: lo <= x <= hi
        return partial(_FLIPPED[self.op], self.value)

    def points(self) -> Optional[Tuple]:
        """The constants of ``=`` / ``in`` (as given: neither sorted
        nor deduplicated); None for a range operator."""
        if self.op == "=":
            return (self.value,)
        return self.values if self.op == "in" else None

    def bounds(self) -> Optional[Tuple[Any, bool, Any, bool]]:
        """``(lo, lo_inclusive, hi, hi_inclusive)`` of a range operator,
        an open end being None; None for ``=`` / ``in``."""
        if self.op == "between":
            return (self.value, True, self.value2, True)
        if self.op in ("<", "<="):
            return (None, True, self.value, self.op == "<=")
        if self.op in (">", ">="):
            return (self.value, self.op == ">=", None, True)
        return None
