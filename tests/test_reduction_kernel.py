"""The Buchberger reduction kernel: delayed normalisation, the divisor memo,
the monomial fast path and the signature kernel, each against the plain
computation it stands for."""

from __future__ import annotations

from fractions import Fraction
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from mixmult import FieldSpec, MonomialOrder
from mixmult.groebner import (_buchberger, _monic, _packed, _Packing, _reduce_full, _reducer,
                              _signature_basis, buchberger)

FIELDS = (FieldSpec(), FieldSpec(7), FieldSpec(32003))


class TestNormal:
    def test_negative_values_land_in_the_prime_field(self):
        F7 = FieldSpec(7)
        assert F7.normal(-3) == 4
        assert F7.normal(-14) == 0
        assert F7.normal(-7 * 10**30 - 1) == 6

    def test_accumulated_products_match_field_arithmetic(self):
        F = FieldSpec(32003)
        pairs = [(-31999, 32002), (5, -17), (-1, -1), (32002, 31000)]
        acc, ref = 0, F.zero
        for a, b in pairs:
            acc += a * b
            ref = F.add(ref, F.mul(F.coerce(a), F.coerce(b)))
        assert acc < 0 and F.normal(acc) == ref

    def test_rationals_are_left_alone(self):
        Q = FieldSpec()
        for a in (Fraction(-3, 2), Fraction(-10**20, 7), Fraction(0)):
            assert Q.normal(a) == a


@st.composite
def kernel_case(draw):
    """A field, a packing, a list of monic reducers and polynomials to reduce."""
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(1, 4))
    block = tuple(draw(st.lists(st.integers(0, nvars - 1), unique=True, max_size=nvars)))
    pk = _Packing(MonomialOrder(block), nvars, 16)
    exp = st.tuples(*[st.integers(0, 3)] * nvars)
    if field.p is None:
        coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    else:
        coeff = st.integers(1, field.p - 1)

    def poly():
        return draw(st.dictionaries(exp, coeff, min_size=1, max_size=5))

    basis = [_reducer(_monic(pk.pack_terms(poly()), field))
             for _ in range(draw(st.integers(1, 5)))]
    targets = [pk.pack_terms(poly()) for _ in range(draw(st.integers(1, 6)))]
    return field, pk, basis, targets


@settings(max_examples=200, deadline=None)
@given(kernel_case())
def test_shared_memo_over_a_growing_basis_matches_fresh_calls(case):
    field, pk, basis, targets = case
    memo: dict = {}
    for size in range(1, len(basis) + 1):
        for t in targets:
            shared = _reduce_full(t, basis[:size], field, pk.guard, memo)
            fresh = _reduce_full(t, basis[:size], field, pk.guard, {})
            assert list(shared.items()) == list(fresh.items())
            assert all(field.normal(c) == c and c for c in shared.values())


@st.composite
def monomial_case(draw):
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(1, 5))
    block = tuple(draw(st.lists(st.integers(0, nvars - 1), unique=True, max_size=nvars)))
    top = draw(st.integers(0, 4))
    exps = draw(st.lists(st.tuples(*[st.integers(0, top)] * nvars), min_size=1, max_size=12))
    coeff = st.just(field.one) if field.p is None else st.integers(1, field.p - 1)
    gens = [{e: field.coerce(draw(coeff))} for e in exps]
    return field, MonomialOrder(block), nvars, gens


@settings(max_examples=200, deadline=None)
@given(monomial_case())
def test_monomial_fast_path_matches_the_pair_loop(case):
    field, order, nvars, gens = case
    pair_loop = _packed(lambda pk: _buchberger(gens, field, pk).reduced(), order, nvars, gens)
    assert buchberger(gens, field, order) == pair_loop


@st.composite
def homogeneous_case(draw):
    """Homogeneous generators, some dependent on the others, now and then a
    constant, under degrevlex or the block order of the first variable."""
    field = draw(st.sampled_from((FieldSpec(2), FieldSpec(3), FieldSpec(32003), FieldSpec())))
    nvars = draw(st.integers(1, 4))
    order = MonomialOrder(draw(st.sampled_from(((), (0,)))))
    if field.p is None:
        coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    else:
        coeff = st.integers(1, field.p - 1)

    def monomial(degree):
        exp = [0] * nvars
        for v in draw(st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree)):
            exp[v] += 1
        return tuple(exp)

    def form(degree):
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            terms[monomial(degree)] = field.coerce(draw(coeff))
        return terms

    def times(f, degree):
        """f times a monomial, to the given degree."""
        m = monomial(degree - sum(next(iter(f))))
        return {tuple(map(add, e, m)): c for e, c in f.items()}

    gens = [form(draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 2))):
        # a dependent generator, m*f + c*m'*g, in the ideal of the others
        f, g = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        degree = max(sum(next(iter(f))), sum(next(iter(g))))
        dep, c = times(f, degree), field.coerce(draw(coeff))
        for e, b in times(g, degree).items():
            dep[e] = field.add(dep.get(e, field.zero), field.mul(c, b))
        dep = {e: b for e, b in dep.items() if b}
        if dep:
            gens.insert(draw(st.integers(0, len(gens))), dep)
    if draw(st.integers(0, 7)) == 0:
        gens.insert(draw(st.integers(0, len(gens))), {(0,) * nvars: field.coerce(draw(coeff))})
    return field, order, nvars, gens


@settings(max_examples=300, deadline=None)
@given(homogeneous_case())
def test_signature_kernel_matches_the_pair_loop(case):
    field, order, nvars, gens = case
    pair_loop = _packed(lambda pk: _buchberger(gens, field, pk).reduced(), order, nvars, gens)
    ours = buchberger(gens, field, order)
    assert [list(h.items()) for h in ours] == [list(h.items()) for h in pair_loop]


@st.composite
def inhomogeneous_case(draw):
    """Two to four sparse generators, one at least of mixed degrees, under a
    block order, at one packing wide enough that no guard bit trips."""
    field = draw(st.sampled_from((FieldSpec(2), FieldSpec(3), FieldSpec(32003), FieldSpec())))
    nvars = draw(st.integers(2, 3))
    block = draw(st.lists(st.integers(0, nvars - 1), unique=True, min_size=1, max_size=nvars))
    pk = _Packing(MonomialOrder.elimination(block), nvars, 24)
    # small integers over Q, whose bases already grow long coefficients
    coeff = st.integers(-3, 3).filter(bool) if field.p is None else st.integers(1, field.p - 1)
    poly = st.dictionaries(st.tuples(*[st.integers(0, 2)] * nvars), coeff.map(field.coerce),
                           min_size=1, max_size=3)
    gens = draw(st.lists(poly, min_size=2, max_size=4).filter(
        lambda gens: any(len(set(map(sum, g))) > 1 for g in gens)))
    return field, pk, gens


@settings(max_examples=300, deadline=None)
@given(inhomogeneous_case())
def test_pair_loop_matches_the_signature_kernel_on_inhomogeneous_input(case):
    # the two kernels share only _MinimalBasis: sugar selection in the pair
    # loop, signatures in the other, must reach the same unique basis
    field, pk, gens = case
    pair_loop = _buchberger(gens, field, pk).reduced()
    signature = _signature_basis(gens, field, pk).reduced()
    assert [list(h.items()) for h in pair_loop] == [list(h.items()) for h in signature]


def test_monomial_unit_ideal():
    F = FieldSpec(32003)
    gens = [{(1, 2): 5}, {(0, 0): 3}, {(2, 0): 1}]
    assert buchberger(gens, F, MonomialOrder()) == [{(0, 0): 1}]
