"""Monomial-order keys: the precomputed split against the plain definition."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from mixmult.groebner import MonomialOrder


def reference_sortkey(block, exp):
    """The block-order sortkey as first written: the split redone per call."""
    if not block:
        return (-sum(exp), exp[::-1])
    eb = tuple(exp[i] for i in block)
    rest = tuple(e for i, e in enumerate(exp) if i not in block)
    return (-sum(eb), eb[::-1], -sum(rest), rest[::-1])


@st.composite
def order_and_exponents(draw):
    nvars = draw(st.integers(1, 6))
    block = tuple(draw(st.lists(st.integers(0, nvars - 1), unique=True, max_size=nvars)))
    exp = st.tuples(*[st.integers(0, 4)] * nvars)
    return MonomialOrder(block), nvars, draw(exp), draw(exp)


@settings(max_examples=300, deadline=None)
@given(order_and_exponents())
def test_sortkey_matches_reference(case):
    order, nvars, a, _ = case
    sortkey, _ = order.keys(nvars)
    assert sortkey(a) == reference_sortkey(order.block, a)
    assert order.sortkey(a) == reference_sortkey(order.block, a)


@settings(max_examples=300, deadline=None)
@given(order_and_exponents())
def test_selkey_is_the_exact_reverse_of_sortkey(case):
    order, nvars, a, b = case
    sortkey, selkey = order.keys(nvars)
    assert (selkey(a) < selkey(b)) == (sortkey(a) > sortkey(b))
    assert (selkey(a) == selkey(b)) == (a == b)
