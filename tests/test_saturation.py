"""Saturation by its direct routes, checked against the iterated-colon oracle.

``saturation`` computes I : J^inf as the intersection of I : g^inf over the
generators g of J, each by Bayer's trick (monomial g, I homogeneous in the
standard grading) or by one Rabinowitsch elimination (everything else). Each
case below is built to take one route, records which routes ran, and
compares the ideal with ``saturation_by_colon`` from ``conftest``.
"""

from __future__ import annotations

import random

import pytest
from conftest import saturation_by_colon

from mixmult import Ideal, groebner, saturation
from mixmult.groebner import _lift, _tagged_ring, eliminate
from mixmult.instances import graded_ring, random_bigraded_algebra, random_ideal_pair


@pytest.fixture
def routes(monkeypatch):
    """Counts of Bayer steps, Rabinowitsch eliminations and intersections
    while a test runs."""
    seen = {"bayer": 0, "rabinowitsch": 0, "intersection": 0}
    real = {"bayer": groebner._bayer_step, "rabinowitsch": groebner._rabinowitsch,
            "intersection": groebner.ideal_intersection}

    def spy(route):
        def counted(*args):
            seen[route] += 1
            return real[route](*args)
        return counted

    monkeypatch.setattr(groebner, "_bayer_step", spy("bayer"))
    monkeypatch.setattr(groebner, "_rabinowitsch", spy("rabinowitsch"))
    monkeypatch.setattr(groebner, "ideal_intersection", spy("intersection"))
    return seen


def _random_monomials(rng: random.Random, ring, count: int) -> list:
    out = []
    for _ in range(count):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(1, 3)):
            exp[rng.randrange(ring.nvars)] += 1
        out.append(ring.monomial(exp))
    return out


def _check(I: Ideal, J: Ideal) -> Ideal:
    sat = saturation(I, J)
    assert sat.same_ideal(saturation_by_colon(I, J))
    return sat


def _cases(seed: int, make_j, count: int = 8):
    rng = random.Random(seed)
    for _ in range(count):
        I, other = random_ideal_pair(rng)
        yield I, make_j(rng, I.ring, other)


def test_monomial_j_takes_bayer(routes):
    for I, J in _cases(1, lambda rng, ring, _: Ideal(ring, _random_monomials(rng, ring, 3))):
        _check(I, J)
    assert routes["bayer"] and not routes["rabinowitsch"]


def test_variables_take_bayer(routes):
    def variables(rng, ring, _):
        return Ideal(ring, rng.sample(ring.gens(), rng.randint(1, ring.nvars)))

    for I, J in _cases(2, variables):
        _check(I, J)
    assert routes["bayer"] and not routes["rabinowitsch"]


def test_non_monomial_j_takes_rabinowitsch(routes):
    for I, J in _cases(3, lambda rng, ring, other: other):
        assert not J.is_monomial
        _check(I, J)
    assert routes["rabinowitsch"]


def test_inhomogeneous_i_falls_back_to_rabinowitsch(routes):
    rng = random.Random(4)
    for _ in range(6):
        I, _ = random_ideal_pair(rng)
        z = I.ring.gens()
        # a degree-2 generator plus a linear term: inhomogeneous
        I = Ideal(I.ring, I.gens + (z[0] * z[1] + z[2],))
        J = Ideal(I.ring, _random_monomials(rng, I.ring, 2))
        _check(I, J)
    assert routes["rabinowitsch"] and not routes["bayer"]


def test_generator_settled_by_membership_is_skipped(routes):
    # I = (z) meet (x, y): I : (x+y)^inf = (z), and (x-y)*z lies in I, so the
    # second generator needs no elimination and no intersection
    ring = graded_ring(("x", "y", "z"))
    x, y, z = ring.gens()
    I, J = Ideal(ring, [x * z, y * z]), Ideal(ring, [x + y, x - y])
    sat = saturation(I, J)
    assert routes == {"bayer": 0, "rabinowitsch": 1, "intersection": 0}
    assert sat.same_ideal(Ideal(ring, [z]))
    assert sat.same_ideal(saturation_by_colon(I, J))


def test_generator_outside_the_colon_is_not_skipped(routes):
    # I : x^inf = (y), and y*y is not in I = (x*y): both parts and their
    # intersection run, and the intersection is I again
    ring = graded_ring(("x", "y", "z"))
    x, y, _ = ring.gens()
    I, J = Ideal(ring, [x * y]), Ideal(ring, [x, y])
    assert saturation(I, J) is I
    assert routes == {"bayer": 2, "rabinowitsch": 0, "intersection": 1}
    assert I.same_ideal(saturation_by_colon(I, J))


def test_constant_generator_gives_i(routes):
    for I, J in _cases(5, lambda rng, ring, other: Ideal(ring, other.gens + (ring.const(7),))):
        assert _check(I, J).same_ideal(I)


def test_zero_ideal(routes):
    rng = random.Random(6)
    I, J = random_ideal_pair(rng)
    zero = Ideal(I.ring)
    z = I.ring.gens()
    assert _check(zero, Ideal(I.ring, [z[0] - z[1]] + list(J.gens))).is_zero
    assert _check(zero, Ideal(I.ring, z)).is_zero
    assert routes["bayer"] and routes["rabinowitsch"]


def test_unit_results(routes):
    rng = random.Random(7)
    I, _ = random_ideal_pair(rng)
    ring = I.ring
    z = ring.gens()
    m_primary = Ideal(ring, [v * v for v in z])
    assert _check(m_primary, Ideal(ring, z)).is_unit
    assert _check(Ideal(ring, [z[0] * z[0], z[0] * z[1]]), Ideal(ring, [z[0]])).is_unit
    general_form = z[0] + z[1].scale(3) + z[2].scale(5) + z[3].scale(11)
    assert _check(m_primary, Ideal(ring, [general_form])).is_unit
    assert routes["bayer"] and routes["rabinowitsch"]


def test_bigraded_product_rule():
    rng = random.Random(8)
    for _ in range(12):
        alg = random_bigraded_algebra(rng)
        I = alg.defining
        direct = saturation(I, alg.rpp_ideal)
        assert alg.saturate(I).same_ideal(direct)
        assert direct.same_ideal(saturation_by_colon(I, alg.rpp_ideal))


def test_eliminate_presets_the_reduced_basis():
    # the basis eliminate attaches is the one a fresh computation finds
    rng = random.Random(9)
    for _ in range(8):
        I, J = random_ideal_pair(rng)
        ext = _tagged_ring(I.ring, 1)
        t = ext.var(ext.nvars - 1)
        gens = [t * _lift(f, ext) for f in I.gens]
        gens += [(ext.one() - t) * _lift(g, ext) for g in J.gens]
        meet = eliminate(gens, I.ring)
        assert meet.groebner() == Ideal(I.ring, meet.gens).groebner()
