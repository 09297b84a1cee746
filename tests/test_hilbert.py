"""Hilbert series, polynomials, tables, and total multiplicities."""

from __future__ import annotations

import contextlib
import io
import random
from itertools import combinations
from operator import le
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixmult import (FieldSpec, Ideal, InputError, MathInvariantError, Poly, Ring,
                     e_table, hilbert_function, ideal_intersection, krull_dim,
                     polynomial_of, series_of, total_multiplicity)
from mixmult import hilbert
from mixmult.cli import main
from mixmult.hilbert import HilbertPoly, HilbertSeries, gbinom
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
            for u in range(P.stability[0], P.stability[0] + 4):
                for v in range(P.stability[1], P.stability[1] + 4):
                    assert P(u, v) == hilbert_function(alg.defining, u, v)

    @staticmethod
    def _coeffs_by_triple_loop(S: HilbertSeries) -> dict:
        """Every coefficient as its own sum over the numerator terms, two
        binomials per term: the oracle for the tables of ``polynomial_of``."""
        n1, n2 = S.counts
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
            S = HilbertSeries(R, num)
            expected = self._coeffs_by_triple_loop(S)
            assert list(polynomial_of(S).coeffs.items()) == list(expected.items()), num


class TestETable:
    def test_binomial_basis_reading(self):
        # u*v + u + 1 in the binomial basis
        P = HilbertPoly({(1, 1): 1, (1, 0): 1, (0, 0): 1}, 2, (1, 1), (0, 0))
        t = e_table(P)
        assert t.r == 2 and t.diagonal() == [0, 1, 0]

    def test_constant(self):
        P = HilbertPoly({(0, 0): 1}, 0, (0, 0), (0, 0))
        t = e_table(P)
        assert t.r == 0 and t.diagonal() == [1]

    def test_negative_entry_rejected(self):
        P = HilbertPoly({(1, 0): -1}, 1, (1, 0), (0, 0))
        with pytest.raises(MathInvariantError):
            e_table(P)


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


def unpacked(lay, gens) -> list:
    """The exponent tuples of packed monomials, read field by field."""
    w, low = lay.width, (1 << lay.width - 1) - 1
    return [tuple(g >> s & low for s in range(0, lay.top, w)) for g in gens]


def components(gens: list) -> list:
    """The exponent tuples grouped by the connected components of their
    supports, where one generator joins all of its variables."""
    parts: list = []  # [variable set, generators]
    for e in gens:
        joined = [{v for v, x in enumerate(e) if x}, [e]]
        rest = [joined]
        for part in parts:
            if part[0] & joined[0]:
                joined[0] |= part[0]
                joined[1] += part[1]
            else:
                rest.append(part)
        parts = rest
    return [part[1] for part in parts]


class TestMonomialRecursion:
    def test_series_matches_the_count_up_to_stability(self, monkeypatch):
        monkeypatch.setattr(hilbert, "_numerator_memo", {})
        calls = []
        numerator = hilbert._numerator

        def spy(lay, gens, *memo):
            calls.append(frozenset(unpacked(lay, gens)))
            return numerator(lay, gens, *memo)

        monkeypatch.setattr(hilbert, "_numerator", spy)
        rng = random.Random(1808)
        for _ in range(200):
            I = random_monomial_ideal(rng)
            S = series_of(I)
            P = polynomial_of(S)
            for u in range(P.stability[0] + 2):
                for v in range(P.stability[1] + 2):
                    value = hilbert_function(I, u, v)
                    assert S.coefficient(u, v) == value
                    if u >= P.stability[0] and v >= P.stability[1]:
                        assert P(u, v) == value
        # the product rule for disjoint supports ran: a node whose supports
        # fall apart recursed on each part of several generators by itself
        seen = set(calls)
        splits = [parts for parts in map(components, map(list, seen))
                  if len(parts) > 1 and any(len(p) > 1 for p in parts)]
        assert splits
        for parts in splits:
            assert all(frozenset(p) in seen for p in parts if len(p) > 1)

    def test_every_recursion_node_gets_minimal_generators(self, monkeypatch):
        monkeypatch.setattr(hilbert, "_numerator_memo", {})
        numerator = hilbert._numerator
        seen = []

        def spy(lay, gens, *memo):
            exps = unpacked(lay, gens)
            assert not any(o != e and all(map(le, o, e)) for o in exps for e in exps)
            seen.append(len(gens))
            return numerator(lay, gens, *memo)

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


def taylor_numerator(ring: Ring, gens: list) -> dict:
    """N(M) = sum over subsets S of the generators of (-1)^|S| t^deg lcm(S),
    from the Taylor resolution; any generating set will do."""
    out: dict = {}
    for k in range(len(gens) + 1):
        for subset in combinations(gens, k):
            lcm = tuple(map(max, *subset)) if k > 1 else (subset[0] if k else (0,) * ring.nvars)
            d = ring.monomial_bidegree(lcm)
            out[d] = out.get(d, 0) + (-1) ** k
    return {d: c for d, c in out.items() if c}


def expand(ring: Ring, numerator: dict, box: int) -> dict:
    """The series coefficients of bidegree (u, v), u, v < box: the numerator
    times 1 / (1 - t^d) for each variable degree d, as running sums."""
    h = {(u, v): numerator.get((u, v), 0) for u in range(box) for v in range(box)}
    for a, b in ring.bidegrees:
        for u in range(a, box):
            for v in range(b, box):
                h[u, v] += h[u - a, v - b]
    return h


_DEGREES = [(1, 0), (0, 1), (2, 1), (1, 2), (0, 3), (1, 1)]
_BIG = [128, 200, 255, 256, 2 ** 15 - 1, 2 ** 15, 40000]


@st.composite
def monomial_ideals(draw):
    """A ring of 1-4 variables of mixed bidegrees, and up to six generators:
    mixed ones with small exponents, pure powers of small or large exponent
    (fields of 8, 16 and 32 bits), and at times the constant 1."""
    n = draw(st.integers(1, 4))
    bidegs = tuple(draw(st.sampled_from(_DEGREES)) for _ in range(n))
    R = Ring("R", tuple(f"v{i}" for i in range(n)), bidegs, F)
    gens = set()
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["mixed", "mixed", "power", "big", "one"]))
        if kind == "one":
            gens.add((0,) * n)
            continue
        exp = [0] * n
        if kind == "mixed":
            for v in range(n):
                exp[v] = draw(st.integers(0, 3))
        else:
            exp[draw(st.integers(0, n - 1))] = draw(
                st.integers(1, 4) if kind == "power" else st.sampled_from(_BIG))
        gens.add(tuple(exp))
    return R, sorted(gens)


class TestSeriesProperties:
    @settings(max_examples=150, deadline=None)
    @given(monomial_ideals())
    def test_series_agrees_with_taylor_and_the_count(self, drawn):
        R, gens = drawn
        I = Ideal(R, [Poly(R, {e: 1}) for e in gens])
        num = series_of(I).numerator
        assert num == taylor_numerator(R, gens)
        if (0,) * R.nvars in gens:
            assert num == {}
        elif not gens:
            assert num == {(0, 0): 1}
        for (u, v), c in expand(R, num, 7).items():
            assert hilbert_function(I, u, v) == c


class TestOneRecursionPerHandle:
    def test_a_hilbert_command_runs_the_root_once(self, monkeypatch):
        monkeypatch.setattr(hilbert, "_numerator_memo", {})
        numerator = hilbert._numerator
        depth, roots = [0], []

        def spy(lay, gens, *memo):
            if not depth[0]:
                roots.append(gens)
            depth[0] += 1
            try:
                return numerator(lay, gens, *memo)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(hilbert, "_numerator", spy)
        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["hilbert", "--file", "problems/three_component.mix",
                         "--ideal", "I"]) == 0
        assert '"multiplicity"' in out.getvalue()  # total_multiplicity ran
        assert len(roots) == 1

    def test_colon_numerator_reuses_the_series_of_the_handle(self, monkeypatch):
        R = plane()
        x, y = R.gens()
        I = Ideal(R, [x * y])
        S = series_of(I)
        # (I : x)/I = (y)/(xy) = y k[y], shifted by deg x = (1, 0)
        torsion = hilbert.colon_numerator(I, x)
        assert torsion == {(1, 1): 1, (2, 1): -1}
        monkeypatch.setattr(hilbert, "_numerator", None)  # no recursion may run
        assert series_of(I) is S
        assert hilbert.colon_numerator(I, x) == torsion


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
            assert {(j, i): v for (i, j), v in t.entries.items()} == t2.entries


def test_gbinom_values():
    assert gbinom(5, 2) == 10
    assert gbinom(-1, 2) == 1
    assert gbinom(-2, 3) == -4
    assert gbinom(3, 0) == 1
    assert gbinom(3, -1) == 0
