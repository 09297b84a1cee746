"""Packed monomials: one int per exponent tuple, against the tuple definitions."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from mixmult.groebner import MonomialOrder, _Packing


def reference_sortkey(block, exp):
    """The block-order sortkey on tuples, ascending in the reverse of the
    monomial order: the leading term has the minimal key."""
    if not block:
        return (-sum(exp), exp[::-1])
    eb = tuple(exp[i] for i in block)
    rest = tuple(e for i, e in enumerate(exp) if i not in block)
    return (-sum(eb), eb[::-1], -sum(rest), rest[::-1])


@st.composite
def packing_and_exponents(draw):
    nvars = draw(st.integers(1, 6))
    block = tuple(draw(st.lists(st.integers(0, nvars - 1), unique=True, max_size=nvars)))
    width = draw(st.integers(6, 12))
    order = MonomialOrder(block)
    # a + b must still fit below the guard bits
    top = ((1 << (width - 1)) - 1) // (2 * nvars)
    exp = st.tuples(*[st.integers(0, top)] * nvars)
    return order, _Packing(order, nvars, width), draw(exp), draw(exp)


@settings(max_examples=300, deadline=None)
@given(packing_and_exponents())
def test_integer_order_is_the_reverse_of_reference_sortkey(case):
    order, pk, a, b = case
    ka, kb = reference_sortkey(order.block, a), reference_sortkey(order.block, b)
    assert (pk.pack(a) < pk.pack(b)) == (ka > kb)
    assert (pk.pack(a) == pk.pack(b)) == (a == b)


@settings(max_examples=300, deadline=None)
@given(packing_and_exponents())
def test_product_is_one_addition(case):
    _, pk, a, b = case
    assert pk.pack(a) + pk.pack(b) == pk.pack(tuple(x + y for x, y in zip(a, b)))


@settings(max_examples=300, deadline=None)
@given(packing_and_exponents())
def test_mask_divisibility_is_componentwise_le(case):
    _, pk, a, b = case
    ab = tuple(x + y for x, y in zip(a, b))
    for u, v in ((a, b), (b, a), (a, a), (a, ab), (ab, a)):
        divides = not (pk.pack(v) - pk.pack(u)) & pk.guard
        assert divides == all(x <= y for x, y in zip(u, v))


@settings(max_examples=300, deadline=None)
@given(packing_and_exponents())
def test_unpack_inverts_pack(case):
    _, pk, a, b = case
    assert pk.unpack(pk.pack(a)) == a
    assert not pk.pack(a) & pk.guard
