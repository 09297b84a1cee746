"""Each derived ideal once per command.

Sums are one handle per generator tuple, and the variable ideals of an
algebra are one handle each. A filter-regular certificate carries the ideal
it reached, with its basis. A saturation computes no basis of the ideal it
saturates by, and intersects no part with an equal one. A derived ideal
equal to its source is its source: ``saturation(I, J) is I`` exactly when I
is J-saturated, and a sum that adds nothing is the other summand. A setting
computes its analytic spread once. A sum whose summand holds its basis
starts from that basis, and ``bigraded-e --verify`` certifies one
(1,0)-chain for all its cells and saturates along it. The last test counts
the Buchberger calls of two whole commands against ceilings recorded with
this design.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import pytest
from conftest import saturation_by_colon

from mixmult import (BigradedAlgebra, FieldSpec, Ideal, Poly, Ring, RunConfig, e_table_full,
                     find_filter_regular)
from mixmult import bigraded, groebner, ideal_mixed
from mixmult.cli import main
from mixmult.groebner import ideal_intersection, ideal_quotient, ideal_sum, saturation
from mixmult.ideal_mixed import mixed_report
from mixmult.instances import bigraded_ring, ideal_fixtures, three_component_example
from mixmult.problemfile import parse_problem
from mixmult.rings import monomials_of_bidegree

F = FieldSpec(32003)
ROOT = Path(__file__).resolve().parent.parent


def _spy_buchberger(monkeypatch) -> list:
    """Record (order, generator set) of every ``buchberger`` call."""
    calls = []
    real = groebner.buchberger

    def spy(gens, field, order, *steering, **kwargs):
        gens = [g for g in gens if g]
        calls.append((order, frozenset(frozenset(g.items()) for g in gens)))
        return real(gens, field, order, *steering, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", spy)
    return calls


class TestStableHandles:
    def test_one_handle_per_sum(self):
        R = Ring("R", ("x", "y", "z"), ((1, 0),) * 3, F)
        x, y, z = R.gens()
        I = Ideal(R, [x * y])
        assert ideal_sum(I, [z]) is ideal_sum(I, [z])
        assert ideal_sum(I, Ideal(R, [z])) is ideal_sum(I, [z])
        assert ideal_sum(I, [x, z]) is not ideal_sum(I, [z, x])
        assert ideal_sum(I, [x]) is not ideal_sum(I, [z])

    def test_variable_ideals_are_one_handle(self):
        alg = three_component_example()
        assert alg.r1_ideal is alg.r1_ideal
        assert alg.r2_ideal is alg.r2_ideal
        assert alg.rpp_ideal is alg.rpp_ideal
        assert alg.sat0 is alg.sat0
        assert alg.polynomial is alg.polynomial

    def test_saturate_computes_no_basis_of_a_variable_ideal(self, monkeypatch):
        alg = three_component_example()
        variable_sets = [frozenset(frozenset(g.terms.items()) for g in K.gens)
                         for K in (alg.r1_ideal, alg.r2_ideal)]
        calls = _spy_buchberger(monkeypatch)
        # the defining ideal involves neither x4 nor y4, so both saturations
        # return it with no Bayer step; x4*y4 involves both, and the
        # saturations of the sum take Bayer steps
        assert alg.saturate(alg.defining) is alg.defining
        assert calls == []
        x4, y4 = alg.ring.var(3), alg.ring.var(7)
        alg.saturate(ideal_sum(alg.defining, [x4 * y4]))
        assert calls
        assert not [gens for _, gens in calls if gens in variable_sets]


class TestCertificateIdeal:
    def test_carries_the_sum_with_its_basis(self, monkeypatch):
        alg = three_component_example()
        cert = find_filter_regular(alg, [(1, 0), (1, 0), (0, 1)], RunConfig(seed=3))
        assert cert.ok and len(cert.elements) == 3
        assert cert.ideal.gens == ideal_sum(alg.defining, cert.elements).gens
        calls = _spy_buchberger(monkeypatch)
        cert.ideal.groebner()
        assert calls == []

    def test_empty_pattern_carries_the_defining_ideal(self):
        alg = three_component_example()
        assert find_filter_regular(alg, [], RunConfig(seed=0)).ideal is alg.defining


class TestIdentityContract:
    """A derived ideal equal to its source is the source handle."""

    def _ring(self):
        R = Ring("R", ("x", "y", "z"), ((1, 0),) * 3, F)
        return (R, *R.gens())

    def test_saturation_by_monomials(self):
        # Bayer's route: monomial J, homogeneous I
        R, x, y, z = self._ring()
        J = Ideal(R, [x * y, z])
        prime = Ideal(R, [x * y - z * z])
        assert saturation(prime, J) is prime
        grows = Ideal(R, [z * x * x, z * x * y, z * y * y, x * x * x])
        sat = saturation(grows, Ideal(R, [x, y]))
        assert sat is not grows
        assert sat.same_ideal(saturation_by_colon(grows, Ideal(R, [x, y])))
        assert saturation(grows, J) is not grows

    def test_an_absent_variable_needs_no_basis(self, monkeypatch):
        R, x, y, z = self._ring()
        I = Ideal(R, [x * y - x * x])
        calls = _spy_buchberger(monkeypatch)
        assert saturation(I, Ideal(R, [z])) is I
        assert calls == []

    def test_saturation_by_forms(self):
        # Rabinowitsch's route: J not monomial
        R, x, y, z = self._ring()
        J = Ideal(R, [x + y, y - z])
        prime = Ideal(R, [x * y - z * z])
        assert saturation(prime, J) is prime
        grows = Ideal(R, [x * (x + y), z * (x + y)])
        sat = saturation(grows, Ideal(R, [x + y]))
        assert sat is not grows
        assert sat.same_ideal(Ideal(R, [x, z]))
        assert sat.same_ideal(saturation_by_colon(grows, Ideal(R, [x + y])))

    def test_saturated_defining_ideal_is_sat0(self):
        alg = three_component_example()
        assert alg.sat0 is alg.defining

    def test_a_sum_that_adds_nothing_is_the_other_summand(self):
        R, x, y, z = self._ring()
        I, J = Ideal(R, [x * y]), Ideal(R, [z])
        assert ideal_sum(Ideal(R), J) is J
        assert ideal_sum(I, []) is I
        assert ideal_sum(I, Ideal(R)) is I
        assert ideal_sum(I, J) is not I


class TestPresetBasis:
    """A handle built from kernel output carries that output as its basis:
    asking for it computes nothing, and it is the basis a fresh handle on
    the same generators computes."""

    def _check(self, monkeypatch, K):
        fresh = Ideal(K.ring, K.gens).groebner()
        calls = _spy_buchberger(monkeypatch)
        assert K.groebner() == fresh
        assert calls == []

    def _ring(self):
        R = Ring("R", ("x", "y", "z"), ((1, 0),) * 3, F)
        return (R, *R.gens())

    def test_monomial_intersection(self, monkeypatch):
        R, x, y, z = self._ring()
        meet = ideal_intersection(Ideal(R, [x * x, y * z]), Ideal(R, [x * y, z**3, x * z]))
        assert {str(g) for g in meet.gens} == {"x^2*y", "x^2*z", "x*y*z", "y*z^3"}
        self._check(monkeypatch, meet)

    def test_monomial_quotient(self, monkeypatch):
        R, x, y, z = self._ring()
        colon = ideal_quotient(Ideal(R, [x * x * y, y * z, x * z * z]), x * z)
        assert {str(g) for g in colon.gens} == {"y", "z"}
        self._check(monkeypatch, colon)

    def test_elimination(self, monkeypatch):
        # the intersection of ideals that are not monomial is one elimination
        R, x, y, z = self._ring()
        meet = ideal_intersection(Ideal(R, [x + y]), Ideal(R, [y * z - x * x]))
        assert not meet.is_monomial
        self._check(monkeypatch, meet)


class TestIncrementalSum:
    """A sum whose summand holds its minimal basis, pending or reduced, runs
    the signature kernel on that basis followed by the added forms, with the
    basis as its known prefix. Over Q and three prime fields the sum must
    have the basis and leading terms of a fresh handle on all the
    generators."""

    FIELDS = [FieldSpec(), FieldSpec(2), FieldSpec(3), F]

    @pytest.fixture
    def prefixes(self, monkeypatch) -> list:
        """The ``prefix`` of every signature-kernel run while a test runs."""
        seen = []
        real = groebner._signature_basis

        def spy(gens, field, pk, **kwargs):
            seen.append(kwargs.get("prefix", 0))
            return real(gens, field, pk, **kwargs)

        monkeypatch.setattr(groebner, "_signature_basis", spy)
        return seen

    @staticmethod
    def _form(rng: random.Random, ring: Ring, bidegree) -> Poly:
        monos = list(monomials_of_bidegree(ring, *bidegree))
        terms = {e: rng.randrange(-3, 4) for e in rng.sample(monos, min(len(monos), 4))}
        terms[rng.choice(monos)] = 1
        return Poly(ring, terms)

    def _check(self, ring: Ring, gens: list, extra: list, known: str, prefixes: list) -> Ideal:
        I = Ideal(ring, gens)
        I.leading_exponents() if known == "pending" else I.groebner()
        basis = I._gb if I._gb is not None else I._pending.basis
        assert (I._gb is None) == (known == "pending") or not gens
        total = ideal_sum(I, extra)
        del prefixes[:]
        lead = total.leading_exponents()
        fresh = Ideal(I.ring, I.gens + tuple(extra))
        assert lead == fresh.leading_exponents()
        assert total.groebner() == fresh.groebner()
        if prefixes:  # else a path with no signature kernel: monomials
            assert prefixes[0] == len(basis)
        assert total._summand is None
        return total

    @pytest.mark.parametrize("known", ["pending", "reduced"])
    @pytest.mark.parametrize("field", FIELDS, ids=["Q", "F2", "F3", "F32003"])
    def test_random_sums_match_a_fresh_handle(self, field, known, prefixes):
        rng = random.Random(17)
        shapes = [(1, 0), (0, 1), (1, 1), (2, 0), (1, 2)]
        for _ in range(10):
            ring = bigraded_ring(rng.randint(1, 3), rng.randint(1, 3), field)
            gens = [self._form(rng, ring, rng.choice(shapes)) for _ in range(rng.randint(1, 3))]
            extra = [self._form(rng, ring, rng.choice(shapes)) for _ in range(rng.randint(1, 2))]
            self._check(ring, gens, extra, known, prefixes)

    @pytest.mark.parametrize("known", ["pending", "reduced"])
    @pytest.mark.parametrize("field", FIELDS, ids=["Q", "F2", "F3", "F32003"])
    def test_edge_sums_match_a_fresh_handle(self, field, known, prefixes):
        ring = bigraded_ring(2, 2, field)
        x1, x2, y1, y2 = ring.gens()
        gens = [x1 * y1 - x2 * y2, x1 * x1 * y2 + x2 * x2 * y1]
        # the unit ideal, from a constant and from a unit summand
        assert self._check(ring, gens, [x1 + x2, ring.one()], known, prefixes).is_unit
        assert self._check(ring, [ring.one()], [x1 * y2], known, prefixes).is_unit
        # an extra form already in I: the sum is I
        inside = self._check(ring, gens, [x1 * gens[0] + y2 * gens[1]], known, prefixes)
        assert inside.same_ideal(Ideal(ring, gens))
        # a monomial
        self._check(ring, gens, [x2 * y1], known, prefixes)
        # (0) + J: no known prefix
        self._check(ring, [], [x1 * y1 + x2 * y2, x1 * y2], known, prefixes)


class TestOneChain:
    """``bigraded-e --verify`` certifies one (1,0)-chain for all its cells,
    and saturates along it by sat(B + z) = sat(sat(B) + z)."""

    @staticmethod
    def _shipped_algebras() -> list:
        out = []
        for path in sorted((ROOT / "problems").glob("*.mix")):
            for name, I in parse_problem(path.read_text()).ideals.items():
                ring = I.ring
                if ring.is_standard_bigraded and ring.first_kind and ring.second_kind:
                    out.append((f"{path.stem}.{name}", BigradedAlgebra(ring, I)))
        return out

    def test_verify_certifies_one_chain(self, monkeypatch):
        certified = []
        real = bigraded._filter_step

        def spy(alg, prev, z):
            step = real(alg, prev, z)
            if step.ok and z.bidegree() == (1, 0):
                certified.append(z)
            return step

        monkeypatch.setattr(bigraded, "_filter_step", spy)
        I = parse_problem((ROOT / "problems" / "three_component.mix").read_text()).ideals["I"]
        table = e_table_full(BigradedAlgebra(I.ring, I), verify=True, config=RunConfig(seed=0))
        assert table.diagonal() == [0, 0, 1, 0, 0]
        # one element per (1,0)-position, r = 4; one chain per cell took 0+1+2+3+4
        assert len(certified) == 4

    def test_saturating_along_the_chain_is_saturating_the_sum(self):
        algebras = self._shipped_algebras()
        assert "three_component.I" in dict(algebras)
        for label, alg in algebras:
            cert = find_filter_regular(alg, [(1, 0), (1, 0), (0, 1)], RunConfig(seed=1))
            B, sat = alg.defining, alg.sat0
            for z in cert.elements:
                B = ideal_sum(B, [z])
                sat = alg.saturate(ideal_sum(sat, [z]))
                assert sat.same_ideal(alg.saturate(B)), label
            assert B is cert.ideal


def test_spread_runs_once_per_setting(monkeypatch):
    calls = []
    real = ideal_mixed.analytic_spread

    def spy(setting):
        calls.append(setting)
        return real(setting)

    monkeypatch.setattr(ideal_mixed, "analytic_spread", spy)
    setting = ideal_fixtures()[0].setting
    mixed_report(setting, RunConfig(seed=0))
    assert len(calls) == 1
    assert setting.s0 is setting.s0


def test_equal_parts_are_not_intersected(monkeypatch):
    # every I : g^inf is (z): the (x, y)-primary component goes, (z) stays
    R = Ring("R", ("x", "y", "z"), ((1, 0),) * 3, F)
    x, y, z = R.gens()
    I = Ideal(R, [z * x * x, z * x * y, z * y * y])
    J = Ideal(R, [x, y, x + y])
    meets = []
    real = groebner.ideal_intersection

    def spy(A, B):
        meets.append((A, B))
        return real(A, B)

    monkeypatch.setattr(groebner, "ideal_intersection", spy)
    sat = saturation(I, J)
    assert meets == []
    assert sat.same_ideal(Ideal(R, [z]))
    assert sat.same_ideal(saturation_by_colon(I, J))


def test_commands_compute_few_bases(monkeypatch):
    """Buchberger calls of two whole commands, and calls repeating an
    (order, generator set) pair; ceilings recorded with saturations and
    sums that return their source when it is the result (before that: 130
    calls, 19 repeats; before one handle per derived ideal: 200 and 73)."""
    calls = _spy_buchberger(monkeypatch)
    for argv in (["bigraded-e", "--file", "problems/three_component.mix", "--ideal", "I",
                  "--verify"],
                 ["ideal-mixed", "--file", "problems/twisted_cubic.mix", "--ideal", "J"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--seed", "0"]) == 0
    repeats = len(calls) - len(set(calls))
    assert len(calls) <= 111
    assert repeats <= 6
