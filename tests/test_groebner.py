"""Groebner kernel: bases, membership, colon, saturation, dimension."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import homogeneous_membership_oracle, truncated_membership_oracle
from mixmult import (DEGREVLEX, FieldSpec, Ideal, InputError, MonomialOrder, Poly, Ring,
                     ideal_intersection, ideal_quotient, in_radical, is_nzd,
                     krull_dim, saturation)
from mixmult import groebner
from mixmult.cli import main
from mixmult.hilbert import series_of
from mixmult.instances import random_ideal_pair
from test_packing import reference_sortkey

F = FieldSpec(32003)
QQ = FieldSpec()


def kxyz(field=F):
    return Ring("R", ("x", "y", "z"), ((1, 0),) * 3, field)


def kxyzw(field=F):
    return Ring("R4", ("x", "y", "z", "w"), ((1, 0),) * 4, field)


def basis_in(I: Ideal, order) -> list[Poly]:
    """The reduced basis of I in ``order``, straight from the kernel."""
    return [Poly(I.ring, h) for h in groebner.buchberger([g.terms for g in I.gens],
                                                       I.ring.field, order)]


def normal_form_in(basis: list[Poly], f: Poly, order) -> Poly:
    """f reduced by ``basis`` in ``order``, as the kernel reduces it."""
    polys = [g.terms for g in basis]

    def reduce(pk):
        packed = [groebner._reducer(pk.pack_terms(h)) for h in polys]
        r = groebner._reduce_full(pk.pack_terms(f.terms), packed, f.ring.field, pk.guard, {})
        return pk.unpack_terms(r)

    return Poly(f.ring, groebner._packed(reduce, order, f.ring.nvars, polys + [f.terms]))


class TestBasis:
    def test_already_a_basis(self):
        R = kxyz()
        x, y, _ = R.gens()
        gb = Ideal(R, [x, y]).groebner()
        assert {str(g) for g in gb} == {"x", "y"}

    def test_zero_ideal(self):
        assert Ideal(kxyz()).groebner() == ()

    def test_y_squared_member_with_linalg_confirmation(self):
        # y^2 lies in (x^2 - y, x*y); confirmed by the degree-4 window oracle
        R = kxyz(QQ)
        x, y, _ = R.gens()
        I = Ideal(R, [x * x - y, x * y])
        assert I.contains(y * y)
        assert truncated_membership_oracle(y * y, I, 4)

    def test_buchberger_certificate(self):
        # every S-polynomial of the returned basis reduces to zero, built with
        # public Poly arithmetic; the block orders certify their packing too
        rng = random.Random(7)
        orders = (DEGREVLEX, MonomialOrder.elimination((0,)),
                  MonomialOrder.elimination((1, 3)))
        for _ in range(10):
            I, _ = random_ideal_pair(rng)
            ring = I.ring
            for order in orders:
                gb = basis_in(I, order)
                lts = [next(iter(g.terms)) for g in gb]
                for a in range(len(gb)):
                    for b in range(a + 1, len(gb)):
                        lcm = tuple(map(max, lts[a], lts[b]))
                        s = (ring.monomial([m - e for m, e in zip(lcm, lts[a])]) * gb[a]
                             - ring.monomial([m - e for m, e in zip(lcm, lts[b])]) * gb[b])
                        assert normal_form_in(gb, s, order).is_zero

    def test_reduced_basis_is_unique_under_generator_shuffle(self):
        rng = random.Random(19)
        for _ in range(5):
            I, _ = random_ideal_pair(rng)
            gens = list(I.gens)
            rng.shuffle(gens)
            J = Ideal(I.ring, gens)
            assert set(I.groebner()) == set(J.groebner())

    def test_membership_matches_linear_algebra_oracle(self):
        rng = random.Random(3)
        for _ in range(15):
            I, _ = random_ideal_pair(rng)
            ring = I.ring
            from mixmult.rings import monomials_of_bidegree

            for d in (1, 2, 3):
                monos = list(monomials_of_bidegree(ring, d, 0))
                terms = {}
                for exp in monos:
                    if rng.random() < 0.4:
                        terms[exp] = rng.randrange(1, ring.field.p)
                if not terms:
                    continue
                f = Poly(ring, terms)
                assert I.contains(f) == homogeneous_membership_oracle(f, I)


class TestOutputContract:
    """``buchberger`` returns monic elements sorted ascending by leading
    monomial, each listing its leading monomial first.
    ``Ideal.leading_exponents``, ``same_ideal`` and ``eliminate`` rely on it."""

    ORDERS = (DEGREVLEX, MonomialOrder.elimination((0,)), MonomialOrder.elimination((1, 3)))

    def check(self, gens, field, order):
        basis = groebner.buchberger(gens, field, order)
        leads = []
        for h in basis:
            lead = min(h, key=lambda e: reference_sortkey(order.block, e))
            assert next(iter(h)) == lead and h[lead] == field.one
            leads.append(lead)
        keys = [reference_sortkey(order.block, e) for e in leads]
        assert keys == sorted(set(keys), reverse=True)  # strictly ascending in the order
        return basis

    def test_random_ideals(self):
        rng = random.Random(23)
        for _ in range(8):
            for I in random_ideal_pair(rng):
                for order in self.ORDERS:
                    self.check([g.terms for g in I.gens], I.ring.field, order)

        def exp():
            return tuple(rng.randrange(3) for _ in range(4))

        for field in (F, QQ):
            for _ in range(8):
                gens = [{exp(): field.coerce(rng.randrange(1, 50))
                         for _ in range(rng.randint(1, 4))}
                        for _ in range(rng.randint(1, 3))]
                for order in self.ORDERS:
                    self.check(gens, field, order)

    def test_monomial_inputs(self):
        # x*y^2 twice with two coefficients, x^2*y^2*z its multiple, 7*z^3:
        # the minimal monomials, monic and ascending in every order here
        c = F.coerce
        gens = [{(1, 2, 0, 0): c(3)}, {(2, 2, 1, 0): c(4)}, {(1, 2, 0, 0): c(5)},
                {(0, 0, 3, 0): c(7)}]
        for order in self.ORDERS:
            assert self.check(gens, F, order) == [{(0, 0, 3, 0): F.one}, {(1, 2, 0, 0): F.one}]
            assert self.check(gens + [{(0, 0, 0, 0): c(2)}], F, order) \
                == [{(0, 0, 0, 0): F.one}]
        rng = random.Random(29)
        for _ in range(20):
            gens = [{tuple(rng.randrange(4) for _ in range(4)): F.one}
                    for _ in range(rng.randint(1, 8))]
            for order in self.ORDERS:
                basis = self.check(gens, F, order)
                assert all(len(h) == 1 for h in basis)

    def test_unit_ideal(self):
        R = kxyzw()
        x, y, z, w = R.gens()
        for gens in ([x, x + R.one()], [x * y, R.one()], [Poly(R, {(0, 0, 0, 0): 5})]):
            for order in self.ORDERS:
                basis = self.check([g.terms for g in gens], F, order)
                assert basis == [{(0, 0, 0, 0): F.one}]


class TestLargeExponents:
    """Packed fields are as wide as each call needs: no exponent ever wraps.
    The expected bases are those of the earlier tuple-exponent kernel."""

    def test_degrevlex_basis(self):
        R = kxyz()
        x, y, _ = R.gens()
        gb = Ideal(R, [x**40000 - y**40000, x * y]).groebner()
        assert [str(g) for g in gb] == ["x*y", "x^40000 + 32002*y^40000", "y^40001"]

    def test_saturation_through_a_block_order(self):
        R = kxyz()
        x, y, z = R.gens()
        sat = saturation(Ideal(R, [x**40000 * z - y**40001, x * y * z]), z + x)
        assert [str(g) for g in sat.groebner()] == [
            "x*y*z", "y^40001 + 32002*x^40000*z", "x^40001*z^2"]

    def test_guard_bit_widens_the_fields(self, monkeypatch):
        # degree 40000 from inputs of degree 200: the first width trips
        widths = []
        real = groebner._Packing

        def spy(order, nvars, width):
            widths.append(width)
            return real(order, nvars, width)

        monkeypatch.setattr(groebner, "_Packing", spy)
        R = kxyz()
        x, y, z = R.gens()
        I = Ideal(R, [z - x**200, z**200 - y])
        order = MonomialOrder.elimination((2,))
        gb = basis_in(I, order)
        assert [str(g) for g in gb] == ["x^40000 + 32002*y", "32002*x^200 + z"]
        assert widths[0] < widths[-1]
        assert tuple(next(iter(g.terms)) for g in gb) == ((40000, 0, 0), (0, 0, 1))
        assert normal_form_in(gb, y * z**3 - x**40600, order).is_zero

    def test_eight_bit_start_trips_and_matches_a_wide_start(self, monkeypatch):
        # inputs of degree 20 start at 8-bit fields; x^140 - y needs wider ones
        widths = []
        real = groebner._Packing

        def spy(order, nvars, width):
            widths.append(width)
            return real(order, nvars, width)

        monkeypatch.setattr(groebner, "_Packing", spy)
        R = kxyz()
        x, y, z = R.gens()
        gens = [(z - x**20).terms, (z**7 - y).terms]
        order = MonomialOrder.elimination((2,))
        basis = groebner.buchberger(gens, R.field, order)
        assert widths[0] == 8 < widths[-1]
        wide = groebner._buchberger(gens, R.field, real(order, 3, 32)).reduced()
        assert [list(h.items()) for h in basis] == [list(h.items()) for h in wide]
        assert [str(Poly(R, h)) for h in basis] == ["x^140 + 32002*y", "32002*x^20 + z"]

    def test_eight_bit_start_trips_on_a_pair_lcm(self, monkeypatch):
        # inputs of degree 61 start at 8-bit fields. No reduction trips:
        # every element stays below degree 128, but the lcm of x^92*z and
        # x^53*y^6*z^3 has degree 151, so the pair loop's lcm test raises
        widths, tripped = [], []
        real, reduce = groebner._Packing, groebner._reduce_full

        def spy(order, nvars, width):
            widths.append(width)
            return real(order, nvars, width)

        def spy_reduce(*args):
            try:
                return reduce(*args)
            except groebner._Overflow:
                tripped.append(args)
                raise

        monkeypatch.setattr(groebner, "_Packing", spy)
        monkeypatch.setattr(groebner, "_reduce_full", spy_reduce)
        R = kxyz()
        x, y, z = R.gens()
        gens = [(x**8 * y**40 * z**13 - z).terms, (x**53 * y**6 * z**3 - x**3 * y).terms]
        basis = groebner.buchberger(gens, R.field, DEGREVLEX)
        assert widths == [8, 16] and tripped == []
        wide = groebner._buchberger(gens, R.field, real(DEGREVLEX, 3, 32)).reduced()
        assert [list(h.items()) for h in basis] == [list(h.items()) for h in wide]
        assert max(sum(e) for h in basis for e in h) == 93

    def test_eight_bit_start_trips_in_the_signature_kernel(self, monkeypatch):
        # homogeneous inputs of degree 61 start at 8-bit fields, and the
        # pairs of the degree-121 basis element pass degree 127
        widths = []
        real = groebner._Packing

        def spy(order, nvars, width):
            widths.append(width)
            return real(order, nvars, width)

        kernel, runs = groebner._signature_basis, []

        def spy_kernel(gens, field, pk, **kwargs):
            runs.append(pk)
            return kernel(gens, field, pk, **kwargs)

        monkeypatch.setattr(groebner, "_Packing", spy)
        monkeypatch.setattr(groebner, "_signature_basis", spy_kernel)
        R = kxyzw()
        x, y, z, w = R.gens()
        gens = [(x * w**60 - y**60 * z).terms, (x * y * w**59 - z**61).terms]
        basis = groebner.buchberger(gens, R.field, DEGREVLEX)
        assert widths == [8, 16] and len(runs) == 2
        wide = groebner._buchberger(gens, R.field, real(DEGREVLEX, 4, 32)).reduced()
        assert [list(h.items()) for h in basis] == [list(h.items()) for h in wide]

    def test_eight_bit_start_trips_on_a_seeded_lcm(self, monkeypatch):
        # a Groebner basis with leading terms x^64 and y^64, then one more
        # form, all of degree 64, packed from an 8-bit start (``_packed``
        # starts there below degree 64). Every generator fits, but the
        # Schreyer signature of the basis's S-pair, at the lcm x^64*y^64 of
        # degree 128, sets the guard bit of the degree field: seeding it
        # raises before any reduction, and the call is redone at 16 bits
        widths, reduced_at = [], []
        real, reduce = groebner._Packing, groebner._reduce_full

        def spy(order, nvars, width):
            widths.append(width)
            return real(order, nvars, width)

        def spy_reduce(*args):
            reduced_at.append(widths[-1])
            return reduce(*args)

        monkeypatch.setattr(groebner, "_Packing", spy)
        monkeypatch.setattr(groebner, "_reduce_full", spy_reduce)
        R = kxyzw()
        x, y, z, w = R.gens()
        gens = [(x**64 - w**64).terms, (y**64 - w**64).terms, (x**32 * y**32 - z**64).terms]
        narrow = groebner._packed(
            lambda pk: groebner._signature_basis(gens, R.field, pk, prefix=2), DEGREVLEX, 4, [])
        assert widths == [8, 16] and 8 not in reduced_at
        wide = groebner._signature_basis(gens, R.field, real(DEGREVLEX, 4, 32), prefix=2)
        assert [list(h.items()) for h in narrow.reduced()] == \
            [list(h.items()) for h in wide.reduced()]
        assert wide.reduced() == groebner.buchberger(gens, R.field, DEGREVLEX)

    def test_eight_bit_start_skips_a_principal_syzygy_past_the_guard_bit(self, monkeypatch):
        # binomials of degree 56 start at 8-bit fields and stay there, but the
        # basis gains an element of degree 81: the principal syzygy of it and
        # a degree-56 element has degree 137, so its signature sets the guard
        # bit of the degree field, and the kernel must not record it
        widths = []
        real = groebner._Packing

        def spy(order, nvars, width):
            widths.append(width)
            return real(order, nvars, width)

        kernel, runs = groebner._signature_basis, []

        def spy_kernel(gens, field, pk, **kwargs):
            runs.append(pk)
            return kernel(gens, field, pk, **kwargs)

        monkeypatch.setattr(groebner, "_Packing", spy)
        monkeypatch.setattr(groebner, "_signature_basis", spy_kernel)
        R = kxyzw()
        x, y, z, w = R.gens()
        gens = [(x**26 * y**26 * z**4 - x**8 * y**24 * z**2 * w**22).terms,
                (x**9 * y**23 * z * w**23 - x * y**27 * z**27 * w).terms]
        basis = groebner.buchberger(gens, R.field, DEGREVLEX)
        assert widths == [8] and len(runs) == 1
        assert sorted(max(map(sum, h)) for h in basis) == [56, 56, 81]
        wide = groebner._buchberger(gens, R.field, real(DEGREVLEX, 4, 32)).reduced()
        assert [list(h.items()) for h in basis] == [list(h.items()) for h in wide]

    def test_deferred_tails_at_eight_bits_match_a_wide_start(self, monkeypatch):
        # trinomials of degree 36 start at 8-bit fields, and their basis of
        # 50 elements reaches degree 91 there; the handle reads its leading
        # terms, then tail-reduces under that packing when asked for its basis
        widths = []
        real = groebner._Packing

        def spy(order, nvars, width):
            widths.append(width)
            return real(order, nvars, width)

        monkeypatch.setattr(groebner, "_Packing", spy)
        R = kxyzw()
        x, y, z, w = R.gens()
        gens = [x**16 * y**10 * z**4 * w**6 - x**12 * y**9 * z**9 * w**6
                - x**3 * z**12 * w**21,
                x**11 * y**4 * z**9 * w**12 - x**6 * y**5 * z**9 * w**16
                - x**16 * y**12 * z**4 * w**4]
        narrow = Ideal(R, gens)
        lead = narrow.leading_exponents()
        assert widths == [8] and max(map(sum, lead)) == 91
        basis = narrow.groebner()
        assert widths == [8]
        monkeypatch.setattr(groebner, "_Packing",
                            lambda order, nvars, width: real(order, nvars, 32))
        wide = Ideal(R, gens)
        assert wide.leading_exponents() == lead
        assert [list(g.terms.items()) for g in wide.groebner()] == \
            [list(g.terms.items()) for g in basis]


class TestDeferredTailPass:
    """A handle runs its kernel's final tail pass only for a reader of
    tails, once: leading terms, the Hilbert series and the dimension need
    none of it."""

    @staticmethod
    def _spy(monkeypatch) -> list:
        runs = []
        real = groebner._MinimalBasis.reduced

        def spy(self):
            runs.append(self)
            return real(self)

        monkeypatch.setattr(groebner._MinimalBasis, "reduced", spy)
        return runs

    def test_hilbert_command_runs_no_tail_pass(self, monkeypatch, capsys):
        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        runs = self._spy(monkeypatch)
        assert main(["hilbert", "--file", "tests/inputs/forms11_4x4.mix", "--ideal", "I",
                     "--seed", "0"]) == 0
        assert runs == []
        assert capsys.readouterr().out == Path("tests/golden/forms11_4x4.hilbert.I.out").read_text()

    @pytest.mark.parametrize("field", [QQ, FieldSpec(2), FieldSpec(3), F],
                             ids=["Q", "F2", "F3", "F32003"])
    def test_basis_after_series_runs_the_pass_once(self, field, monkeypatch):
        R = Ring("B", ("x1", "x2", "x3", "y1", "y2", "y3"), ((1, 0),) * 3 + ((0, 1),) * 3, field)
        x1, x2, _, y1, _, _ = R.gens()
        rng = random.Random(5)
        cells = [tuple(int(v in (a, b)) for v in range(6)) for a in range(3) for b in range(3, 6)]
        forms = [Poly(R, {e: rng.randrange(-3, 4) for e in cells}) for _ in range(3)]
        cases = {"forms": forms, "unit": [R.one()], "zero": [],
                 "monomial": [x1 * y1, x2**2 * y1, x1 * x2 * y1**2]}
        runs = self._spy(monkeypatch)
        for name, gens in cases.items():
            I = Ideal(R, gens)
            series_of(I)
            krull_dim(I)
            assert runs == [], name
            basis = I.groebner()
            assert I.groebner() is basis
            assert len(runs) == (1 if gens else 0), name
            assert basis == Ideal(R, gens).groebner(), name
            assert I.leading_exponents() == tuple(next(iter(g.terms)) for g in basis)
            del runs[:]


class TestNormalForm:
    def test_member_reduces_to_zero(self):
        R = kxyz()
        x, y, _ = R.gens()
        assert Ideal(R, [x]).normal_form(x * x).is_zero

    def test_nonmember_survives(self):
        R = kxyz()
        x, y, _ = R.gens()
        assert Ideal(R, [x]).normal_form(y) == y

    def test_idempotence(self):
        rng = random.Random(11)
        for _ in range(10):
            I, J = random_ideal_pair(rng)
            f = (J.gens + I.gens)[0] * (J.gens + I.gens)[-1]
            once = I.normal_form(f)
            assert I.normal_form(once) == once


class TestContainsIdeal:
    """``contains_ideal`` reduces its generators as one batch, under one
    packing and one divisor memo, and stops at the first non-member."""

    def test_agrees_with_one_membership_test_per_generator(self):
        rng = random.Random(25)
        outcomes = set()
        for _ in range(20):
            I, J = random_ideal_pair(rng)
            products = Ideal(I.ring, [f * g for f in I.gens for g in J.gens])
            mixed = Ideal(I.ring, products.gens + J.gens)
            for other in (J, products, mixed, Ideal(I.ring)):
                expected = all(I.contains(g) for g in other.gens)
                assert I.contains_ideal(other) == expected
                outcomes.add(expected)
        assert outcomes == {True, False}

    def test_tripped_guard_bit_redoes_the_whole_batch(self, monkeypatch):
        # the first packing is too narrow for the later, higher members: the
        # batch is redone at the wider width, its early members included
        widths = []
        real = groebner._Packing

        def spy(order, nvars, width):
            widths.append(width)
            return real(order, nvars, width if len(widths) > 1 else 9)

        R = kxyz()
        x, y, z = R.gens()
        I = Ideal(R, [x * y, z**2])
        I.groebner()
        members = [x * y * z, x**40000 * y, y * z**40001]
        monkeypatch.setattr(groebner, "_Packing", spy)
        assert I.contains_ideal(Ideal(R, members))
        assert widths[0] < widths[-1] and len(widths) == 2
        assert not I.contains_ideal(Ideal(R, members + [x**40000 * z, y**3]))
        monkeypatch.undo()
        forms = I._normal_forms(members + [x**40000 * z, y**3])
        assert [Poly(R, t) for t in forms] == [R.zero()] * 3 + [x**40000 * z]


class TestColon:
    def test_monomial_colon(self):
        R = kxyz()
        x, y, _ = R.gens()
        assert {str(g) for g in ideal_quotient(Ideal(R, [x * x * y]), x).groebner()} == {"x*y"}

    def test_colon_by_independent_variable(self):
        R = kxyz()
        x, y, _ = R.gens()
        assert {str(g) for g in ideal_quotient(Ideal(R, [x]), y).groebner()} == {"x"}

    def test_colon_by_ideal_is_intersection_of_colons(self):
        R = kxyz()
        x, y, z = R.gens()
        I = Ideal(R, [x * x * y, x * z])
        by_ideal = ideal_quotient(I, Ideal(R, [x, z]))
        meet = ideal_intersection(ideal_quotient(I, x), ideal_quotient(I, z))
        assert by_ideal.same_ideal(meet)
        # both inclusions against a brute-force window
        for g in by_ideal.groebner():
            assert truncated_membership_oracle(g, meet, 5)
        for g in meet.groebner():
            assert truncated_membership_oracle(g, by_ideal, 5)

    def test_colon_by_zero_raises(self):
        R = kxyz()
        with pytest.raises(InputError):
            ideal_quotient(Ideal(R, [R.var(0)]), R.zero())


class TestIntersection:
    def test_principal(self):
        R = kxyz()
        x, y, _ = R.gens()
        assert {str(g) for g in ideal_intersection(Ideal(R, [x]), Ideal(R, [y])).groebner()} == {"x*y"}

    def test_two_planes(self):
        R = kxyz()
        x, y, z = R.gens()
        got = ideal_intersection(Ideal(R, [x, y]), Ideal(R, [x, z]))
        assert {str(g) for g in got.groebner()} == {"x", "y*z"}

    def test_intersection_with_unit(self):
        R = kxyz()
        x, y, _ = R.gens()
        I = Ideal(R, [x + y])
        assert ideal_intersection(I, Ideal(R, [R.one()])).same_ideal(I)

    def test_monomial_fast_path_matches_general_route(self):
        # dual route: lcm shortcut vs tag-variable elimination
        rng = random.Random(23)
        R = kxyzw()
        from mixmult.groebner import _lift, _tagged_ring, eliminate
        from mixmult.rings import monomials_of_bidegree

        def rand_monomial_ideal():
            gens = []
            for _ in range(rng.randint(1, 4)):
                d = rng.randint(1, 3)
                monos = list(monomials_of_bidegree(R, d, 0))
                gens.append(R.monomial(monos[rng.randrange(len(monos))]))
            return Ideal(R, gens)

        for _ in range(10):
            I_m, J_m = rand_monomial_ideal(), rand_monomial_ideal()
            fast = ideal_intersection(I_m, J_m)
            ext = _tagged_ring(R, 1)
            t = ext.var(ext.nvars - 1)
            gens = [t * _lift(f, ext) for f in I_m.gens]
            gens += [(ext.one() - t) * _lift(g, ext) for g in J_m.gens]
            general = eliminate(gens, R)
            assert fast.same_ideal(general)

    def test_monomial_fast_paths_give_minimal_sorted_generators(self):
        # the generators are the minimal ones in (degree, exponent) order,
        # whatever the order and redundancy of the inputs
        R = kxyz()
        x, y, z = R.gens()

        def exps(I):
            return [next(iter(g.terms)) for g in I.gens]

        I, J = Ideal(R, [x * y, x * x, y * z]), Ideal(R, [y, x * z, x * x * y])
        meet = ideal_intersection(I, J)
        assert exps(meet) == [(0, 1, 1), (1, 1, 0), (2, 0, 1)]
        assert exps(ideal_intersection(Ideal(R, reversed(I.gens)),
                                       Ideal(R, reversed(J.gens)))) == exps(meet)
        assert meet.same_ideal(Ideal(R, [x * y, y * z, x * x * z]))
        colon = ideal_quotient(Ideal(R, [x * x * y, x * z * z, y * y * z]), x * y)
        assert exps(colon) == [(1, 0, 0), (0, 0, 2), (0, 1, 1)]


class TestSaturation:
    def test_principal_becomes_unit(self):
        R = kxyz()
        x, _, _ = R.gens()
        assert saturation(Ideal(R, [x * x]), Ideal(R, [x])).is_unit

    def test_brute_force_example(self):
        # (x^2 y, x z) : x^infinity = (y, z); checked by low-degree enumeration
        R = kxyz()
        x, y, z = R.gens()
        I = Ideal(R, [x * x * y, x * z])
        sat = saturation(I, Ideal(R, [x]))
        assert {str(g) for g in sat.groebner()} == {"y", "z"}
        from mixmult.rings import monomials_of_bidegree

        for d in range(1, 4):
            for exp in monomials_of_bidegree(R, d, 0):
                f = R.monomial(exp)
                pulled = any(I.contains(x ** k * f) for k in range(5))
                assert pulled == sat.contains(f)

    def test_component_survival(self):
        # ((x1) cap (x2,x3)) : (x1,x4)^inf keeps both components
        R = kxyzw()
        x1, x2, x3, x4 = R.gens()
        I = ideal_intersection(Ideal(R, [x1]), Ideal(R, [x2, x3]))
        sat = saturation(I, Ideal(R, [x1, x4]))
        assert sat.same_ideal(I)

    def test_laws_random(self):
        rng = random.Random(5)
        for _ in range(20):
            I, J = random_ideal_pair(rng)
            sat = saturation(I, J)
            assert sat.contains_ideal(I)
            assert saturation(sat, J).same_ideal(sat)


class TestDimension:
    def test_full_ring(self):
        assert krull_dim(Ideal(kxyz())) == 3

    def test_two_components(self):
        R = kxyz()
        x, y, z = R.gens()
        assert krull_dim(Ideal(R, [x * y, x * z])) == 2

    def test_unit_convention(self):
        R = kxyz()
        assert krull_dim(Ideal(R, [R.one()])) == -1

    def test_matches_subset_enumeration(self):
        from itertools import combinations

        rng = random.Random(637)
        for _ in range(120):
            n = rng.randint(1, 8)
            R = Ring("R", tuple(f"v{i}" for i in range(n)), ((1, 0),) * n, F)
            exps = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
                    for _ in range(rng.randint(1, 10))]
            exps = [e for e in exps if any(e)]
            I = Ideal(R, [Poly(R, {e: 1}) for e in exps])
            supports = [{i for i, x in enumerate(e) if x} for e in exps]
            # the largest variable set that contains no generator's support
            brute = max((k for k in range(n + 1) for S in combinations(range(n), k)
                         if not any(s <= set(S) for s in supports)), default=-1)
            assert krull_dim(I) == brute

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(1, (1 << n) - 1), max_size=14))))
    def test_branch_and_bound_matches_every_subset(self, drawn):
        n, supports = drawn
        R = Ring("R", tuple(f"v{i}" for i in range(n)), ((1, 0),) * n, F)
        I = Ideal(R, [Poly(R, {tuple(s >> v & 1 for v in range(n)): 1}) for s in supports])
        # the largest variable set, as a bitmask, that contains no support
        brute = max(S.bit_count() for S in range(1 << n)
                    if not any(s & S == s for s in supports))
        assert krull_dim(I) == brute

    def test_dim_matches_series_pole_order(self):
        from mixmult import total_multiplicity

        rng = random.Random(29)
        for _ in range(10):
            I, _ = random_ideal_pair(rng)
            if I.is_unit:
                continue
            dim, _ = total_multiplicity(I)  # asserts pole == krull_dim internally
            assert dim == krull_dim(I)


class TestZeroDivisors:
    def test_variable_mod_other_variable(self):
        R = kxyz()
        x, y, _ = R.gens()
        assert is_nzd(x, Ideal(R, [y]))

    def test_variable_mod_product(self):
        R = kxyz()
        x, y, _ = R.gens()
        assert not is_nzd(x, Ideal(R, [x * y]))

    def test_generic_linear_form_on_two_components(self):
        R = kxyzw()
        x1, x2, x3, x4 = R.gens()
        I = ideal_intersection(Ideal(R, [x1]), Ideal(R, [x2, x3]))
        form = x1 + x2.scale(2) + x3.scale(5) + x4.scale(11)
        assert is_nzd(form, I)


class TestHomogeneityPreservation:
    def test_operations_preserve_bihomogeneity(self):
        rng = random.Random(41)
        from mixmult.instances import random_bigraded_algebra

        for _ in range(8):
            alg = random_bigraded_algebra(rng)
            I = alg.defining
            for g in I.groebner():
                assert g.bidegree() is not None
            sat = saturation(I, alg.rpp_ideal)
            for g in sat.groebner():
                assert g.bidegree() is not None
            meet = ideal_intersection(I, alg.r1_ideal)
            for g in meet.groebner():
                assert g.bidegree() is not None


class TestRadical:
    def test_nilpotent_membership(self):
        R = kxyz()
        x, y, _ = R.gens()
        assert in_radical(x, Ideal(R, [x * x]))
        assert not in_radical(y, Ideal(R, [x * x]))

    def test_power_membership(self):
        rng = random.Random(31)
        for _ in range(5):
            I, J = random_ideal_pair(rng)
            f = J.gens[0]
            if in_radical(f, I):
                assert any(I.contains(f ** k) for k in range(1, 12))
