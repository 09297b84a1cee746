"""Polynomial core: exact arithmetic, grading, canonical printing."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixmult import FieldSpec, InputError, Poly, Ring
from mixmult.rings import monomials_of_bidegree, swap_ring

QQ = FieldSpec()
GF = FieldSpec(32003)


def ring_q():
    return Ring("R", ("x", "y", "z"), ((1, 0), (1, 0), (0, 1)), QQ)


def ring_p():
    return Ring("R", ("x", "y", "z"), ((1, 0), (1, 0), (0, 1)), GF)


@st.composite
def small_polys(draw, ring):
    nterms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(nterms):
        exp = tuple(draw(st.integers(0, 3)) for _ in range(ring.nvars))
        coeff = draw(st.integers(-9, 9))
        terms[exp] = terms.get(exp, 0) + coeff
    return Poly(ring, {e: c for e, c in terms.items() if c})


class TestArithmetic:
    def test_cancellation(self):
        R = ring_q()
        x, y, _ = R.gens()
        assert (x + y) + (-x) == y

    def test_multiplicative_identity(self):
        R = ring_q()
        x, y, _ = R.gens()
        f = x * y + y ** 2 - R.const(3)
        assert f * R.one() == f

    def test_difference_of_squares(self):
        R = ring_q()
        x, y, _ = R.gens()
        assert (x + y) * (x - y) == x ** 2 - y ** 2

    def test_ring_mismatch_raises(self):
        a = ring_q().var(0)
        other = Ring("S", ("u",), ((1, 0),), QQ)
        with pytest.raises(InputError):
            a + other.var(0)

    def test_variable_index_outside_the_ring_rejected(self):
        R = Ring("R", ("x", "y"), ((1, 0), (0, 1)), GF)
        assert R.var(1) == R.monomial((0, 1))
        for i in (2, 5, -1):
            with pytest.raises(InputError):
                R.var(i)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ring_axioms(self, data):
        R = ring_q()
        f = data.draw(small_polys(R))
        g = data.draw(small_polys(R))
        h = data.draw(small_polys(R))
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f + g == g + f

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_prime_field_agrees_with_rationals_mod_p(self, data):
        Rq, Rp = ring_q(), ring_p()
        f = data.draw(small_polys(Rq))
        g = data.draw(small_polys(Rq))
        fp = Poly(Rp, dict(f.terms))
        gp = Poly(Rp, dict(g.terms))
        prod_q = f * g
        prod_p = fp * gp
        reduced = {e: GF.coerce(c) for e, c in prod_q.terms.items()}
        reduced = {e: c for e, c in reduced.items() if c}
        assert reduced == prod_p.terms


class TestPowers:
    @pytest.mark.parametrize("field", [QQ, GF], ids=str)
    def test_powers_match_repeated_products(self, field):
        R = Ring("R", ("x", "y", "z"), ((1, 0), (1, 0), (0, 1)), field)
        rng = random.Random(200)
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(0, 4)):
                exp = tuple(rng.randint(0, 2) for _ in range(3))
                terms[exp] = terms.get(exp, 0) + rng.choice((-3, -1, 1, 2, 5))
            f = Poly(R, {e: c for e, c in terms.items() if c})
            product = R.one()
            for n in range(7):
                assert f ** n == product
                product = product * f

    def test_coefficients_that_vanish_mod_p_are_dropped(self):
        R = Ring("R", ("x", "y"), ((1, 0), (0, 1)), FieldSpec(7))
        x, y = R.gens()
        assert (x + y) ** 7 == x ** 7 + y ** 7

    def test_negative_exponent_rejected(self):
        with pytest.raises(InputError):
            ring_q().var(0) ** -1


class TestGrading:
    def test_mixed_product_bidegree(self):
        R = ring_q()
        x, _, z = R.gens()
        assert (x * z).bidegree() == (1, 1)

    def test_homogeneous_sum(self):
        R = ring_q()
        x, y, z = R.gens()
        assert (x * z + y * z).bidegree() == (1, 1)

    def test_inhomogeneous_marker(self):
        R = ring_q()
        x, _, z = R.gens()
        assert (x + z).bidegree() is None

    def test_zero_poly_has_no_bidegree(self):
        with pytest.raises(InputError):
            ring_q().zero().bidegree()

    def test_constant_bidegree(self):
        assert ring_q().const(5).bidegree() == (0, 0)

    def test_monomial_enumeration_counts(self):
        R = ring_q()
        # two (1,0)-variables and one (0,1)-variable
        assert len(list(monomials_of_bidegree(R, 3, 2))) == 4
        assert len(list(monomials_of_bidegree(R, 0, 0))) == 1

    def test_monomial_enumeration_with_weighted_bidegrees(self):
        # variables of bidegree (2,0), (0,3), (1,1), (1,2), against every
        # exponent tuple small enough to reach the bidegree
        R = Ring("W", ("a", "b", "c", "d"), ((2, 0), (0, 3), (1, 1), (1, 2)), QQ)
        brute: dict = {}
        for e in itertools.product(range(8), repeat=4):
            brute.setdefault(R.monomial_bidegree(e), []).append(e)
        for u in range(6):
            for v in range(8):
                listed = list(monomials_of_bidegree(R, u, v))
                assert sorted(listed) == brute.get((u, v), []), (u, v)

    def test_swap_ring_transposes_bidegrees(self):
        R = swap_ring(ring_q())
        assert R.bidegrees == ((0, 1), (0, 1), (1, 0))


class TestPrinting:
    def test_canonical_examples(self):
        R = ring_q()
        x, y, z = R.gens()
        assert str(x ** 2 - y) == "x^2 - y"
        assert str(R.zero()) == "0"
        assert str(-x) == "-x"
        assert str(R.const(Fraction(1, 2)) * x) == "1/2*x"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_print_parse_roundtrip(self, data):
        # canonical form is unique: rendering and re-reading is the identity
        from mixmult.problemfile import parse_problem

        R = ring_p()
        f = data.draw(small_polys(R))
        text = (
            "field F 32003\n"
            "ring R vars x:(1,0) y:(1,0) z:(0,1)\n"
            f"ideal I in R = {f}\n"
        )
        pf = parse_problem(text)
        gens = pf.ideals["I"].gens
        if f.is_zero:
            assert gens == ()
        else:
            assert gens == (f,)
