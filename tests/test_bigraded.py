"""Bigraded pipeline: degree reports, filter-regular sequences, positivity."""

from __future__ import annotations

import random

import pytest
from conftest import colon_escape

from mixmult import (FieldSpec, Ideal, InputError, RunConfig, degrees_report,
                     e_positivity, e_table_full, e_value_from_prefix, e_value_via_criterion,
                     find_filter_regular, is_filter_regular, sum_check)
from mixmult.bigraded import BigradedAlgebra, _filter_step, _random_kind_element
from mixmult.groebner import ideal_sum, saturation
from mixmult.hilbert import polynomial_of, series_of
from mixmult.instances import (bigraded_ring, random_bigraded_algebra,
                               rigidity_instances, three_component_example,
                               trivial_plane, two_component_vanishing)

F = FieldSpec(32003)


@pytest.fixture(scope="module")
def example8():
    return three_component_example()


class TestDegreesReport:
    def test_three_component_example(self, example8):
        rep = degrees_report(example8)
        assert (rep.r, rep.r1, rep.r2) == (4, 3, 3)

    def test_vanishing_example(self):
        alg = two_component_vanishing(3)
        rep = degrees_report(alg)
        assert rep.p_is_zero and rep.r is None
        assert (rep.dim_total, rep.dim_mod_r1, rep.dim_mod_r2) == (3, 3, 3)
        # the mixed products vanish in the quotient
        assert saturation(alg.defining, alg.rpp_ideal).is_unit

    def test_trivial_plane(self):
        rep = degrees_report(trivial_plane())
        assert (rep.r, rep.r1, rep.r2) == (0, 0, 0)


class TestFilterRegular:
    def test_named_sequence_passes(self, example8):
        ring = example8.ring
        seq = [ring.var("x4"), ring.var("x2"), ring.var("y4"), ring.var("y2")]
        assert is_filter_regular(example8, seq).ok

    def test_nilpotent_products_accept_anything(self):
        # once the mixed products are nilpotent, every element passes
        R = bigraded_ring(1, 1, name="N")
        x, y = R.gens()
        alg = BigradedAlgebra(R, Ideal(R, [x * y]))
        assert is_filter_regular(alg, [x]).ok
        assert is_filter_regular(alg, [y, x]).ok

    def test_component_variable_fails_with_witness(self, example8):
        x1 = example8.ring.var("x1")
        cert = is_filter_regular(example8, [x1])
        assert not cert.ok and not cert.steps[0].ok
        # the colon oracle names a witness: it multiplies x1 into the ideal
        # but escapes the saturation
        prev = example8.defining
        witness = colon_escape(example8, prev, x1)
        assert witness is not None
        assert prev.contains(witness * x1)
        assert not saturation(prev, example8.rpp_ideal).contains(witness)

    def test_series_verdict_matches_colon_oracle(self):
        # every variable and a random form of each kind, over the defining
        # ideal and over it plus one of those candidates
        rng = random.Random(20261018)
        triples = rejected = 0
        for _ in range(40):
            alg = random_bigraded_algebra(rng)
            ring = alg.ring
            cands = [ring.var(i) for i in range(ring.nvars)]
            cands += [_random_kind_element(alg, kind, rng, RunConfig()) for kind in ((1, 0), (0, 1))]
            prefix = ideal_sum(alg.defining, [rng.choice(cands)])
            for prev in (alg.defining, prefix):
                for z in cands:
                    expected = colon_escape(alg, prev, z) is None
                    assert _filter_step(alg, prev, z).ok == expected, (alg, prev, z)
                    triples += 1
                    rejected += not expected
        assert triples >= 300 and rejected >= 20

    def test_one_kind_ring_rejected(self):
        # without both kinds Rpp is zero and every module is torsion, so
        # the series test would pass anything
        R = bigraded_ring(2, 0, name="X")
        x1, x2 = R.gens()
        alg = BigradedAlgebra(R, Ideal(R, [x1 * x2]))
        with pytest.raises(InputError, match="both bidegrees"):
            is_filter_regular(alg, [x1])

    def test_inhomogeneous_rejected(self, example8):
        ring = example8.ring
        with pytest.raises(InputError):
            is_filter_regular(example8, [ring.var("x1") + ring.one()])

    def test_search_finds_verified_sequence(self, example8):
        cert = find_filter_regular(example8, [(1, 0), (1, 0), (0, 1), (0, 1)],
                                   RunConfig(seed=4))
        assert cert.ok and len(cert.steps) == 4
        assert all(s.ok for s in cert.steps)
        assert is_filter_regular(example8, cert.elements).ok

    def test_empty_pattern(self, example8):
        cert = find_filter_regular(example8, [], RunConfig(seed=0))
        assert cert.ok and cert.elements == []

    def test_bad_pattern_rejected(self, example8):
        with pytest.raises(InputError):
            find_filter_regular(example8, [(1, 1)], RunConfig(seed=0))


class TestPositivity:
    def test_cell_13_negative(self, example8):
        positive, wdim, _ = e_positivity(example8, 1, 3, RunConfig(seed=5))
        assert not positive and wdim == 3

    def test_cell_31_negative_by_symmetry(self, example8):
        positive, _, _ = e_positivity(example8, 3, 1, RunConfig(seed=5))
        assert not positive

    def test_cell_22_positive(self, example8):
        positive, wdim, _ = e_positivity(example8, 2, 2, RunConfig(seed=5))
        assert positive and wdim == 3

    def test_off_diagonal_rejected(self, example8):
        with pytest.raises(InputError):
            e_positivity(example8, 1, 1, RunConfig(seed=0))

    def test_vanishing_polynomial_rejected(self):
        with pytest.raises(InputError):
            e_positivity(two_component_vanishing(2), 0, 0, RunConfig(seed=0))


class TestValues:
    @staticmethod
    def _random_value(alg, i, j, config=RunConfig()):
        # the positivity test, then the multiplicity off its certified prefix
        positive, _, cert = e_positivity(alg, i, j, config)
        return e_value_from_prefix(alg, cert, j, config) if positive else 0

    def test_named_sequence_value(self, example8):
        ring = example8.ring
        seq = [ring.var("x4"), ring.var("x2"), ring.var("y4"), ring.var("y2")]
        assert e_value_via_criterion(example8, 2, 2, sequence=seq) == 1

    def test_random_sequence_value(self, example8):
        assert self._random_value(example8, 2, 2, RunConfig(seed=9)) == 1

    def test_zero_cells(self, example8):
        assert self._random_value(example8, 4, 0, RunConfig(seed=9)) == 0
        assert self._random_value(example8, 1, 3, RunConfig(seed=9)) == 0

    def test_trivial_cell(self):
        assert self._random_value(trivial_plane(), 0, 0) == 1

    def test_table(self, example8):
        assert e_table_full(example8).diagonal() == [0, 0, 1, 0, 0]

    def test_table_verified(self, example8):
        table = e_table_full(example8, verify=True, config=RunConfig(seed=3))
        assert table.diagonal() == [0, 0, 1, 0, 0]


class TestSumIdentity:
    def test_trivial_plane(self):
        assert sum_check(trivial_plane()) is True

    def test_three_component_example(self, example8):
        assert sum_check(example8) is True

    def test_precondition_unknown_is_tri_state(self):
        # x1 * (everything of the first kind) dies: the quotient has the whole
        # first-kind ideal as a zero divisor component
        R = bigraded_ring(2, 1, name="U")
        x1, x2, y1 = R.gens()
        alg = BigradedAlgebra(R, Ideal(R, [x1 * x2, x1 * y1, x1 * x1]))
        assert sum_check(alg) is None


class TestRigidityInstances:
    def test_window_positive(self):
        for inst in rigidity_instances():
            rep = degrees_report(inst.algebra)
            diag = e_table_full(inst.algebra).diagonal()
            window = range(rep.r - rep.r2, rep.r1 + 1)
            for i in range(rep.r + 1):
                if i in window:
                    assert diag[i] > 0, (inst.label, i)
                else:
                    assert diag[i] == 0, (inst.label, i)


class TestSliceConsistency:
    @staticmethod
    def _assert_shift_laws(alg, seed):
        # a verified (1,0)-element drops the first partial degree by exactly
        # one, bounds the total degree, and shifts the high coefficients
        cert = find_filter_regular(alg, [(1, 0)], RunConfig(seed=seed))
        z = cert.elements[0]
        quotient = BigradedAlgebra(alg.ring, ideal_sum(alg.defining, [z]))
        P_big = polynomial_of(series_of(alg.defining))
        if P_big.is_zero:
            assert polynomial_of(series_of(quotient.defining)).is_zero
            return
        P_small = polynomial_of(series_of(quotient.defining))
        assert P_small.degrees[0] == P_big.degrees[0] - 1
        if not P_small.is_zero:
            assert P_small.total_degree <= P_big.total_degree - 1
        r = P_big.total_degree
        for i in range(r):
            j = r - 1 - i
            assert P_small.coeffs.get((i, j), 0) == P_big.coeffs.get((i + 1, j), 0)

    def test_quotient_shift_on_worked_example(self, example8):
        self._assert_shift_laws(example8, seed=21)

    def test_quotient_shift_on_random_instances(self):
        import random

        from mixmult.instances import random_bigraded_algebra

        rng = random.Random(2024)
        done = 0
        while done < 6:
            alg = random_bigraded_algebra(rng)
            if alg.defining.is_unit or not alg.ring.first_kind:
                continue
            self._assert_shift_laws(alg, seed=done)
            done += 1

    def test_reduction_size_of_first_kind_matches_quotient_dimension(self, example8):
        # a set of (1,0)-forms generates a reduction of the first-kind ideal
        # exactly when that ideal lies in the radical; the minimal count of
        # generic forms achieving this is dim R/(second-kind ideal)
        from mixmult.groebner import in_radical

        rep = degrees_report(example8)
        count = rep.dim_mod_r2

        def is_reduction(elements) -> bool:
            Q = ideal_sum(example8.defining, elements)
            return all(
                in_radical(example8.ring.var(i), Q)
                for i in example8.ring.first_kind
            )

        cert = find_filter_regular(example8, [(1, 0)] * count, RunConfig(seed=31))
        assert is_reduction(cert.elements)
        assert not is_reduction(cert.elements[: count - 1])
