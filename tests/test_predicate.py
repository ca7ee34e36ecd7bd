"""The one ``Predicate``: every derived form is held to the oracle.

``ReferenceEngine._matches`` keeps its own copy of the seven-operator
table precisely so this suite has something independent to compare
with: for int, float and char values, ``matcher()``, the answer
bisected out of a sorted list with ``points()`` / ``bounds()`` (by
Untrusted's column index), and ``matcher()`` over order-preserving
encoded keys (what the climbing index's delta log does) must all agree
with it.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference import ReferenceEngine
from repro.errors import IndexError_
from repro.index.keys import KeyCodec
from repro.predicate import OPS, Predicate
from repro.storage.codec import CharType, FloatType, IntType
from repro.untrusted.engine import _ColumnIndex
from repro.untrusted.server import VisRequest

#: per column type: its values (small domains, so duplicates and hits
#: abound).  ``+ 0.0`` folds -0.0 into 0.0: the two compare equal but
#: encode to different float keys, a quirk of the key encoding that is
#: not this module's to decide.
DOMAINS = {
    IntType(4): st.integers(-6, 6),
    FloatType(): st.one_of(
        st.integers(-6, 6).map(lambda k: k / 2),
        st.floats(allow_nan=False, allow_infinity=False),
    ).map(lambda x: x + 0.0),
    CharType(12): st.text(alphabet="abé€", max_size=4),
}


@st.composite
def predicates_st(draw, constant):
    op = draw(st.sampled_from(OPS))
    if op == "in":
        return Predicate("in", values=draw(st.lists(constant, max_size=4)))
    if op == "between":     # bounds drawn apart: may be inverted
        return Predicate("between", draw(constant), draw(constant))
    return Predicate(op, draw(constant))


@st.composite
def cases(draw):
    column_type = draw(st.sampled_from(list(DOMAINS)))
    constant = DOMAINS[column_type]
    return (column_type, draw(st.lists(constant, max_size=30)),
            draw(predicates_st(constant)))


def from_sorted(keys, predicate):
    """The matching elements of sorted ``keys``, bisected out of them
    by Untrusted's column index from ``points()`` / ``bounds()``."""
    index = _ColumnIndex(keys, array("I", range(len(keys))))
    return sorted(k for lo, hi in index.spans(predicate)
                  for k in keys[lo:hi])


@settings(max_examples=300, deadline=None)
@given(cases())
def test_every_derived_form_agrees_with_the_oracle(case):
    column_type, values, predicate = case
    expected = [v for v in values
                if ReferenceEngine._matches(predicate, v)]
    match = predicate.matcher()
    assert [v for v in values if match(v)] == expected
    assert from_sorted(sorted(values), predicate) == sorted(expected)
    encode = KeyCodec(column_type).encode
    keyed = predicate.map(encode)
    key_match = keyed.matcher()
    assert [v for v in values if key_match(encode(v))] == expected
    keys = sorted(map(encode, values))
    assert from_sorted(keys, keyed) == sorted(map(encode, expected))


@settings(max_examples=100, deadline=None)
@given(cases())
def test_map_round_trips_constants(case):
    _, _, predicate = case
    assert predicate.map(lambda c: c) == predicate
    wrapped = predicate.map(lambda c: (c,))
    assert wrapped.op == predicate.op
    assert wrapped.constants() == tuple((c,) for c in predicate.constants())
    assert wrapped.map(lambda c: c[0]).constants() == predicate.constants()


@settings(max_examples=100, deadline=None)
@given(cases())
def test_instances_hash_and_compare_by_value(case):
    """``Session._prefetch_vis`` deduplicates ``VisRequest``s by hash."""
    _, _, predicate = case
    twin = Predicate(predicate.op, predicate.value, predicate.value2,
                     None if predicate.values is None
                     else list(predicate.values))   # a list becomes a tuple
    assert twin == predicate and hash(twin) == hash(predicate)
    requests = {VisRequest("T", (("v", predicate),)),
                VisRequest("T", (("v", twin),))}
    assert len(requests) == 1
    other = Predicate("in", values=(*predicate.constants(), "another"))
    assert other != predicate


def test_malformed_predicates_are_rejected_at_construction():
    for build in (lambda: Predicate("!=", 1),
                  lambda: Predicate("like", "a%"),
                  lambda: Predicate("in")):
        with pytest.raises(IndexError_):
            build()
    assert Predicate("=", None).matcher()(None)     # = compares anything
