"""The invariants behind ``ideal-mixed``, each against an oracle or known
values.

- ``is_nzd`` decides regularity by Hilbert series; the oracle is the colon
  test I : f = I.
- ``analytic_spread`` is the Krull dimension of the fiber of the Rees
  presentation, on every input; it is checked against known spreads, among
  them p-th powers, where a Jacobian rank would read too low. The rank
  oracle of ``tests/test_rank_oracle.py`` checks it on random ideals.
- ``height_of`` is dim A - dim A/J for a polynomial ring; the oracle is the
  certified random chain that stays for other ambient rings.
"""

from __future__ import annotations

import random

import pytest

import mixmult.ideal_mixed as ideal_mixed
from mixmult import (FieldSpec, GradedSetting, Ideal, InputError, Poly, height_of,
                     ideal_quotient, is_nzd)
from mixmult.config import RunConfig
from mixmult.ideal_mixed import _height_by_chain, analytic_spread
from mixmult.instances import (graded_ring, ideal_fixtures, random_bigraded_algebra,
                               random_ideal_pair, reduction_pairs)
from mixmult.rings import monomials_of_bidegree


def colon_oracle(f: Poly, I: Ideal) -> bool:
    return ideal_quotient(I, f).same_ideal(I)


def random_form(rng: random.Random, ring, u: int, v: int = 0, density: float = 0.4) -> Poly:
    monos = list(monomials_of_bidegree(ring, u, v))
    terms = {e: rng.randrange(1, ring.field.p) for e in monos if rng.random() < density}
    if not terms:
        terms[rng.choice(monos)] = 1
    return Poly(ring, terms)


# ---------------------------------------------------------------------------
# non-zerodivisors
# ---------------------------------------------------------------------------


class TestNonZeroDivisor:
    def test_random_pairs_agree_with_the_colon(self):
        rng = random.Random(1501)
        verdicts = []
        for _ in range(24):
            I, J = random_ideal_pair(rng)
            # a generator of the partner ideal, a sparse form or a variable:
            # the last two are zero divisors often enough to test both verdicts
            for f in (rng.choice(J.gens), random_form(rng, I.ring, rng.randint(1, 2), 0, 0.2),
                      I.ring.var(rng.randrange(I.ring.nvars))):
                verdict = is_nzd(f, I)
                assert verdict == colon_oracle(f, I), (I.gens, f)
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    def test_bigraded_shifts_agree_with_the_colon(self):
        # bidegrees (1,0), (0,1) and (1,1) exercise both coordinates of t^d
        rng = random.Random(1502)
        verdicts = []
        for _ in range(12):
            alg = random_bigraded_algebra(rng, max_vars=4)
            for u, v in ((1, 0), (0, 1), (1, 1)):
                f = random_form(rng, alg.ring, u, v, 0.3)
                verdict = is_nzd(f, alg.defining)
                assert verdict == colon_oracle(f, alg.defining), (alg.defining.gens, f)
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    def test_zero_divisor(self):
        R = graded_ring(("x", "y"), name="ZD")
        x, y = R.gens()
        assert not is_nzd(x, Ideal(R, [x * y]))
        assert not colon_oracle(x, Ideal(R, [x * y]))
        assert is_nzd(x, Ideal(R, [y * y]))

    def test_unit_ideal_and_constant(self):
        R = graded_ring(("x", "y"), name="UC")
        x, y = R.gens()
        unit = Ideal(R, [R.one()])
        assert is_nzd(x, unit) and colon_oracle(x, unit)
        I = Ideal(R, [x * y])
        three = R.const(3)
        assert is_nzd(three, I) and colon_oracle(three, I)
        assert not is_nzd(R.zero(), I)

    def test_inhomogeneous_ideal_raises(self):
        R = graded_ring(("x", "y"), name="IH")
        x, y = R.gens()
        with pytest.raises(InputError):
            is_nzd(x, Ideal(R, [x * x - y]))
        with pytest.raises(InputError):
            is_nzd(x * x - y, Ideal(R, [x * y]))


# ---------------------------------------------------------------------------
# analytic spread
# ---------------------------------------------------------------------------


def _polynomial_setting(ring, gens) -> GradedSetting:
    return GradedSetting(ring, Ideal(ring), Ideal(ring, gens))


class TestSpread:
    def test_seeded_equigenerated_ideals_agree_with_rees(self):
        # the spreads on which the Jacobian certificate and the fiber agreed
        expected = [2, 3, 1, 2, 1, 2, 2, 2, 2, 2, 4, 2, 2, 1, 1, 2]
        rng = random.Random(1503)
        values = []
        for _ in range(16):
            ring = graded_ring(tuple(f"z{i}" for i in range(rng.randint(2, 4))), name="SP")
            d = rng.randint(1, 2)
            gens = [random_form(rng, ring, d) for _ in range(rng.randint(1, 5))]
            if rng.random() < 0.3 and len(gens) >= 2:
                gens.append(gens[0] + gens[1])  # a dependent generator
            setting = _polynomial_setting(ring, gens)
            value = analytic_spread(setting)
            assert value <= min(len(setting.J.gens), ring.nvars), [str(g) for g in gens]
            values.append(value)
        assert values == expected

    def test_spread_below_the_bound_falls_back(self):
        ring = graded_ring(("x", "y", "z"), name="QF")
        x, y, _ = ring.gens()
        # l = 2 < min(s, n) = 3
        assert analytic_spread(_polynomial_setting(ring, [x * x, x * y, y * y])) == 2

    def test_pth_powers_fall_back(self):
        # every partial derivative of x^3 and y^3 vanishes over F_3; the
        # fiber k[x^3, y^3] still has dimension 2, over F_3 and F_5 alike
        for p in (3, 5):
            ring = graded_ring(("x", "y", "z"), FieldSpec(p), name=f"P{p}")
            x, y, _ = ring.gens()
            assert analytic_spread(_polynomial_setting(ring, [x ** 3, y ** 3])) == 2

    def test_rationals(self):
        ring = graded_ring(("a", "b", "c", "d"), FieldSpec(), name="TQ")
        a, b, c, d = ring.gens()
        J = [a * c - b * b, a * d - b * c, b * d - c * c]
        assert analytic_spread(_polynomial_setting(ring, J)) == 3

    def test_other_hypotheses_fall_back(self):
        planes = ideal_fixtures()[0]
        assert planes.setting.defining.gens  # not a polynomial ring
        assert analytic_spread(planes.setting) == planes.expected_spread
        ring = graded_ring(("x", "y"), name="NE")
        x, y = ring.gens()
        assert analytic_spread(_polynomial_setting(ring, [x, y * y])) == 2


# ---------------------------------------------------------------------------
# height
# ---------------------------------------------------------------------------


def _polynomial_settings():
    for fx in ideal_fixtures():
        if fx.setting.defining.is_zero:
            yield fx.setting
    for pair in reduction_pairs():
        yield from pair
    ring = graded_ring(("x", "y", "z"), name="ND")
    x, y, z = ring.gens()
    yield _polynomial_setting(ring, [x * y, x * z])  # a plane and a line: height 1
    rng = random.Random(1504)
    for _ in range(6):
        I, _ = random_ideal_pair(rng)
        yield GradedSetting(I.ring, Ideal(I.ring), I)


class TestHeight:
    def test_formula_agrees_with_the_chain(self, monkeypatch):
        searches = []

        def spy(*args):
            searches.append(args[3])
            return real_search(*args)

        real_search = ideal_mixed.certified_search
        monkeypatch.setattr(ideal_mixed, "certified_search", spy)
        settings = list(_polynomial_settings())
        assert len(settings) >= 10
        for seed, setting in enumerate(settings):
            ht = height_of(setting, RunConfig(seed=seed))
            assert not searches  # deterministic: no draw at all
            assert ht == _height_by_chain(setting, RunConfig(seed=seed)), setting.J.gens
            searches.clear()

    def test_non_domain_keeps_the_chain(self, monkeypatch):
        searches = []

        def spy(*args):
            searches.append(args[3])
            return real_search(*args)

        real_search = ideal_mixed.certified_search
        monkeypatch.setattr(ideal_mixed, "certified_search", spy)
        planes = ideal_fixtures()[0]
        assert height_of(planes.setting) == planes.expected_height
        assert searches == ["element of J avoiding the minimal primes"]
