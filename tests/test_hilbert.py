"""Hilbert series, polynomials, tables, and total multiplicities."""

from __future__ import annotations

import random
from operator import le

import pytest

from mixmult import (FieldSpec, Ideal, InputError, MathInvariantError, Poly, Ring,
                     e_table, hilbert_function, ideal_intersection, krull_dim,
                     polynomial_of, series_of, total_multiplicity)
from mixmult import hilbert
from mixmult.hilbert import HilbertPoly2, HilbertSeries2, gbinom
from mixmult.instances import random_bigraded_algebra

F = FieldSpec(32003)


def plane():
    return Ring("P", ("x", "y"), ((1, 0), (0, 1)), F)


class TestSeries:
    def test_free_ring(self):
        assert series_of(Ideal(plane())).numerator == {(0, 0): 1}

    def test_single_mixed_generator(self):
        R = plane()
        x, y = R.gens()
        assert series_of(Ideal(R, [x * y])).numerator == {(0, 0): 1, (1, 1): -1}

    def test_two_component_intersection_against_count(self):
        n = 3
        names = tuple(f"x{i}" for i in range(n)) + tuple(f"y{i}" for i in range(n))
        R = Ring("R", names, ((1, 0),) * n + ((0, 1),) * n, F)
        xs = [R.var(i) for i in range(n)]
        ys = [R.var(n + i) for i in range(n)]
        I = ideal_intersection(Ideal(R, [xs[0]]), Ideal(R, [ys[0]]))
        S = series_of(I)
        for u in range(7):
            for v in range(7 - u):
                assert S.coefficient(u, v) == hilbert_function(I, u, v)

    def test_inhomogeneous_rejected(self):
        R = plane()
        x, y = R.gens()
        with pytest.raises(InputError):
            series_of(Ideal(R, [x + R.one()]))


class TestHilbertFunction:
    def test_single_monomial_each_bidegree(self):
        assert hilbert_function(Ideal(plane()), 3, 5) == 1

    def test_one_relation(self):
        R = Ring("R", ("x1", "x2", "y1"), ((1, 0), (1, 0), (0, 1)), F)
        x1, x2, y1 = R.gens()
        assert hilbert_function(Ideal(R, [x1 * y1]), 1, 1) == 1

    def test_axes_only(self):
        R = plane()
        x, y = R.gens()
        I = Ideal(R, [x * y])
        for u in range(4):
            for v in range(4):
                assert hilbert_function(I, u, v) == (1 if u * v == 0 else 0)


class TestPolynomial:
    def test_unit_numerator(self):
        P = polynomial_of(series_of(Ideal(plane())))
        assert P.coeffs == {(0, 0): 1} and P.total_degree == 0

    def test_vanishing_polynomial(self):
        R = plane()
        x, y = R.gens()
        P = polynomial_of(series_of(Ideal(R, [x * y])))
        assert P.is_zero

    def test_window_agreement(self):
        rng = random.Random(2)
        for _ in range(12):
            alg = random_bigraded_algebra(rng)
            S = series_of(alg.defining)
            P = polynomial_of(S)
            for u in range(P.u_star, P.u_star + 4):
                for v in range(P.v_star, P.v_star + 4):
                    assert P(u, v) == hilbert_function(alg.defining, u, v)

    @staticmethod
    def _coeffs_by_triple_loop(S: HilbertSeries2) -> dict:
        """Every coefficient as its own sum over the numerator terms, two
        binomials per term: the oracle for the tables of ``polynomial_of``."""
        n1, n2 = S.n1, S.n2
        coeffs = {}
        for i in range(n1):
            for j in range(n2):
                a_ij = 0
                for (a, b), c in S.numerator.items():
                    a_ij += c * gbinom(n1 - 1 - a, n1 - 1 - i) * gbinom(n2 - 1 - b, n2 - 1 - j)
                if a_ij:
                    coeffs[(i, j)] = a_ij
        return coeffs

    def test_binomial_tables_match_the_triple_loop(self):
        rng = random.Random(20261019)
        for _ in range(60):
            n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
            names = tuple(f"x{i}" for i in range(n1)) + tuple(f"y{j}" for j in range(n2))
            R = Ring("R", names, ((1, 0),) * n1 + ((0, 1),) * n2, F)
            num = {(rng.randint(0, 8), rng.randint(0, 8)): rng.choice((-1, 1)) * rng.randint(1, 20)
                   for _ in range(rng.randint(1, 12))}
            S = HilbertSeries2(R, num)
            expected = self._coeffs_by_triple_loop(S)
            assert list(polynomial_of(S).coeffs.items()) == list(expected.items()), num


class TestETable:
    def test_binomial_basis_reading(self):
        # u*v + u + 1 in the binomial basis
        P = HilbertPoly2({(1, 1): 1, (1, 0): 1, (0, 0): 1}, 2, 1, 1, 0, 0)
        t = e_table(P)
        assert t.r == 2 and t.diagonal() == [0, 1, 0]

    def test_constant(self):
        P = HilbertPoly2({(0, 0): 1}, 0, 0, 0, 0, 0)
        t = e_table(P)
        assert t.r == 0 and t.diagonal() == [1]

    def test_negative_entry_rejected(self):
        P = HilbertPoly2({(1, 0): -1}, 1, 1, 0, 0, 0)
        with pytest.raises(MathInvariantError):
            e_table(P)

    def test_degree_mismatch_rejected(self):
        P = HilbertPoly2({(0, 0): 1}, 0, 0, 0, 0, 0)
        with pytest.raises(MathInvariantError):
            e_table(P, r_expected=1)


class TestTotalMultiplicity:
    def test_affine_plane(self):
        R = Ring("S", ("x", "y"), ((1, 0),) * 2, F)
        assert total_multiplicity(Ideal(R)) == (2, 1)

    def test_twisted_cubic_degree(self):
        R = Ring("P3", ("x0", "x1", "x2", "x3"), ((1, 0),) * 4, F)
        a, b, c, d = R.gens()
        J = Ideal(R, [a * c - b * b, a * d - b * c, b * d - c * c])
        assert total_multiplicity(J) == (2, 3)

    def test_top_component_hyperplane(self):
        R = Ring("P4", ("x1", "x2", "x3", "x4"), ((1, 0),) * 4, F)
        x1, x2, x3, _ = R.gens()
        I = ideal_intersection(Ideal(R, [x1]), Ideal(R, [x2, x3]))
        assert total_multiplicity(I) == (3, 1)

    def test_unit_ideal_rejected(self):
        R = plane()
        with pytest.raises(InputError):
            total_multiplicity(Ideal(R, [R.one()]))

    @pytest.mark.parametrize("bidegrees", [((2, 0), (0, 1)), ((2, 0), (2, 0))])
    def test_variables_of_other_degrees_rejected(self, bidegrees):
        # the multiplicity would depend on how the weights are normalised
        R = Ring("W", ("x", "y"), bidegrees, F)
        x, y = R.gens()
        with pytest.raises(InputError, match="total degree 1"):
            total_multiplicity(Ideal(R, [x * y]))

    def test_dimension_always_matches_krull(self):
        rng = random.Random(8)
        for _ in range(15):
            alg = random_bigraded_algebra(rng)
            if alg.defining.is_unit:
                continue
            dim, e = total_multiplicity(alg.defining)
            assert dim == krull_dim(alg.defining)
            assert e > 0


class TestOracleEquivalence:
    def test_many_random_instances(self):
        rng = random.Random(12345)
        for _ in range(25):
            alg = random_bigraded_algebra(rng)
            S = series_of(alg.defining)
            for u in range(6):
                for v in range(6 - u):
                    assert S.coefficient(u, v) == hilbert_function(alg.defining, u, v)


def random_monomial_ideal(rng: random.Random) -> Ideal:
    """A monomial ideal in at most 3+3 variables, drawn from one of three
    shapes: any generators, pure powers next to one-variable generators, or
    generators on two disjoint variable blocks."""
    n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
    names = tuple(f"x{i}" for i in range(n1)) + tuple(f"y{i}" for i in range(n2))
    R = Ring("R", names, ((1, 0),) * n1 + ((0, 1),) * n2, F)
    n = n1 + n2
    shape = rng.randrange(3)
    blocks = [list(range(n))]
    if shape == 2 and n >= 2:
        cut = rng.randint(1, n - 1)
        order = rng.sample(range(n), n)
        blocks = [order[:cut], order[cut:]]
    gens = []
    for _ in range(rng.randint(1, 5)):
        block = rng.choice(blocks)
        exp = [0] * n
        if shape == 1:
            exp[rng.choice(block)] = rng.randint(1, 3)
        else:
            for v in rng.sample(block, rng.randint(1, len(block))):
                exp[v] = rng.randint(1, 2)
        gens.append(Poly(R, {tuple(exp): 1}))
    return Ideal(R, gens)


class TestMonomialRecursion:
    def test_series_matches_the_count_up_to_stability(self, monkeypatch):
        monkeypatch.setattr(hilbert, "_numerator_memo", {})
        splits = []
        components = hilbert._components

        def spy(gens):
            parts = components(gens)
            if len(parts) > 1 and any(len(p) > 1 for p in parts):
                splits.append(len(parts))
            return parts

        monkeypatch.setattr(hilbert, "_components", spy)
        rng = random.Random(1808)
        for _ in range(200):
            I = random_monomial_ideal(rng)
            S = series_of(I)
            P = polynomial_of(S)
            for u in range(P.u_star + 2):
                for v in range(P.v_star + 2):
                    value = hilbert_function(I, u, v)
                    assert S.coefficient(u, v) == value
                    if u >= P.u_star and v >= P.v_star:
                        assert P(u, v) == value
        assert splits  # the product rule for disjoint supports ran

    def test_every_recursion_node_gets_minimal_generators(self, monkeypatch):
        monkeypatch.setattr(hilbert, "_numerator_memo", {})
        numerator = hilbert._numerator
        seen = []

        def spy(bidegs, gens):
            assert not any(o != e and all(map(le, o, e)) for o in gens for e in gens)
            seen.append(len(gens))
            return numerator(bidegs, gens)

        monkeypatch.setattr(hilbert, "_numerator", spy)
        rng = random.Random(5)
        for _ in range(60):
            series_of(random_monomial_ideal(rng))
        n = 4
        R = Ring("R", tuple(f"v{i}" for i in range(2 * n)), ((1, 0),) * n + ((0, 1),) * n, F)
        for _ in range(3):
            exps = {tuple(rng.randint(0, 2) for _ in range(2 * n)) for _ in range(30)}
            series_of(Ideal(R, [Poly(R, {e: 1}) for e in exps if any(e)]))
        assert max(seen) >= 10


class TestGradingSwap:
    def test_transposition(self):
        rng = random.Random(77)
        from mixmult.bigraded import e_table_full

        for _ in range(6):
            alg = random_bigraded_algebra(rng)
            swapped = alg.swapped()
            s, s2 = series_of(alg.defining), series_of(swapped.defining)
            assert {(b, a): c for (a, b), c in s.numerator.items()} == s2.numerator
            t, t2 = e_table_full(alg), e_table_full(swapped)
            assert t.transposed().entries == t2.entries


def test_gbinom_values():
    assert gbinom(5, 2) == 10
    assert gbinom(-1, 2) == 1
    assert gbinom(-2, 3) == -4
    assert gbinom(3, 0) == 1
    assert gbinom(3, -1) == 0
