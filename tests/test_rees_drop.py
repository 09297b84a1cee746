"""The Hilbert-driven pair drop of the Rees presentation.

``rees_presentation`` hands the pair loop the weights of its grading and the
number of leading terms still missing in each weighted degree, and the loop
drops the remaining pairs of a degree once none is missing. A wrong count
drops a needed pair and gives a wrong basis, so every basis here is compared
with the plain elimination of the same generators: no weights, no drop.
``eliminate`` tail-reduces only the elements it keeps, so its basis is also
compared with the block-free part of the whole block-order basis.
The inputs have Hilbert series 1/(1 - z)^(n+2) (rational normal curves, an
ideal generated in degrees 2 to 4) and others (a quotient ring A, the ``sv``
joins), over F 32003, F 2 and F 3.
The loop counts a degree only where more pairs wait than the count must
take in new leading terms, so the smallest inputs never count.
"""

from __future__ import annotations

import itertools
import random
import sys
from operator import le
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixmult import GradedSetting, Ideal, groebner, ideal_mixed
from mixmult.errors import MathInvariantError
from mixmult.groebner import buchberger
from mixmult.hilbert import StandardCount
from mixmult.ideal_mixed import rees_presentation
from mixmult.problemfile import parse_problem
from mixmult.sv_cycles import make_join
from test_hilbert import monomial_ideals

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import families  # noqa: E402


def _parse(name: str, field: str = "F 32003"):
    return parse_problem(_over((ROOT / name).read_text(), field))


def _setting(pf, ideal: str, ambient: str | None = None) -> GradedSetting:
    J = pf.ideals[ideal]
    return GradedSetting(J.ring, pf.ideals[ambient] if ambient else Ideal(J.ring), J)


def _join(pf, x: str, y: str) -> GradedSetting:
    return make_join(pf.ideals[x], pf.ideals[y])


def _curve(d: int) -> GradedSetting:
    return _setting(parse_problem(families.rational_normal_curve(random.Random(1), d)), "J")


def _over(text: str, field: str) -> str:
    return text.replace("field F 32003", f"field {field}")


SETTINGS = {
    "rnc3": lambda: _curve(3),
    "rnc4": lambda: _curve(4),
    "rnc5": lambda: _setting(_parse("tests/inputs/rnc5.mix"), "J"),
    "pair_of_planes_amb": lambda: _setting(_parse("problems/pair_of_planes.mix"), "J", "amb"),
    "two_conics": lambda: _join(_parse("problems/two_conics.mix"), "X", "Y"),
    "two_lines": lambda: _join(_parse("problems/two_lines.mix"), "X", "Y"),
    "join22": lambda: _join(parse_problem(families.plane_curve_join(random.Random(1), 2, 2)),
                            "X", "Y"),
    "join33": lambda: _join(_parse("tests/inputs/join33.mix"), "X", "Y"),
    "conic_line_join": lambda: _join(
        parse_problem(families.improper_join(random.Random(1), 2, 1, 1)), "X", "Y"),
    "rnc4_F2": lambda: _setting(parse_problem(
        _over(families.rational_normal_curve(random.Random(1), 4), "F 2")), "J"),
    "rnc4_F3": lambda: _setting(parse_problem(
        _over(families.rational_normal_curve(random.Random(1), 4), "F 3")), "J"),
    "join33_F2": lambda: _join(_parse("tests/inputs/join33.mix", "F 2"), "X", "Y"),
    "join33_F3": lambda: _join(_parse("tests/inputs/join33.mix", "F 3"), "X", "Y"),
    "pair_of_planes_amb_F3": lambda: _setting(_parse("problems/pair_of_planes.mix", "F 3"),
                                              "J", "amb"),
    # J generated in degrees 2, 3 and 4: T_j weighs deg g_j + 1
    "mixed_degrees": lambda: _setting(parse_problem(
        "field F 32003\nring R vars x:1 y:1 z:1 w:1\n"
        "ideal J in R = x^2 - y*w ; y^3 + z^2*w ; x*z*w - y^2*z ; z^4 + x^3*w\n"), "J"),
    "twisted_cubic_F2": lambda: _setting(_parse("problems/twisted_cubic.mix", "F 2"), "J"),
    "three_points_F3": lambda: _setting(_parse("problems/three_points.mix", "F 3"), "J"),
}
# so few pairs wait in each degree that no count would pay for itself
BELOW_THE_GATE = {"rnc3", "twisted_cubic_F2", "three_points_F3"}


def _arguments(setting: GradedSetting, monkeypatch):
    """The generators, base ring, weights and count of missing leading
    terms that ``rees_presentation`` hands ``eliminate``, after checking
    that the presentation is the plain elimination."""
    real = groebner.eliminate
    seen: list = []

    def spy(gens, base, weights, missing):
        seen.append((gens, base, weights, missing))
        return real(gens, base, weights, missing)

    monkeypatch.setattr(ideal_mixed, "eliminate", spy)
    _, presented = rees_presentation(setting)
    (gens, base, weights, missing), = seen
    assert presented.gens == real(gens, base).gens
    return gens, base, weights, missing


def _order(gens, base) -> groebner.MonomialOrder:
    return groebner.MonomialOrder.elimination(range(base.nvars, gens[0].ring.nvars))


def _elimination(setting: GradedSetting, monkeypatch):
    """The arguments of ``_arguments`` as ``buchberger`` takes them."""
    gens, base, weights, missing = _arguments(setting, monkeypatch)
    return [g.terms for g in gens], gens[0].ring.field, _order(gens, base), weights, missing


@pytest.mark.parametrize("name", SETTINGS)
def test_eliminate_keeps_the_block_free_part_of_the_whole_basis(name, monkeypatch):
    # eliminate reduces the tails of the elements it keeps only; they must
    # be those of the whole reduced block-order basis, in its order, with
    # and without the weights and the count
    gens, base, weights, missing = _arguments(SETTINGS[name](), monkeypatch)
    n = base.nvars
    whole = buchberger([g.terms for g in gens], base.field, _order(gens, base))
    expected = [[(e[:n], c) for e, c in h.items()] for h in whole if not any(next(iter(h))[n:])]
    assert expected and len(expected) < len(whole)
    for steering in ((), (weights,), (weights, missing)):
        kept = groebner.eliminate(gens, base, *steering).groebner()
        assert [list(g.terms.items()) for g in kept] == expected


@pytest.mark.parametrize("name", SETTINGS)
def test_the_drop_keeps_the_reduced_basis(name, monkeypatch):
    # the whole block-order basis, the elements with t included
    gens, field, order, weights, missing = _elimination(SETTINGS[name](), monkeypatch)
    counted: list = []

    def count(lts, D):
        counted.append(D)
        return missing(lts, D)

    assert buchberger(gens, field, order, weights, count) == buchberger(gens, field, order)
    # every input is homogeneous for the weights, so the drop runs wherever
    # enough pairs wait
    assert bool(counted) == (name not in BELOW_THE_GATE)


@pytest.mark.parametrize("name", ["rnc4", "pair_of_planes_amb", "two_conics", "join22",
                                  "rnc4_F2", "join33_F3"])
def test_a_hilbert_function_one_too_large_is_caught(name, monkeypatch):
    # one leading term fewer missing in every degree: a complete degree reads
    # -1 and raises, and an incomplete one loses a needed pair. The other
    # direction only keeps pairs the loop could drop: slower, never wrong.
    gens, field, order, weights, missing = _elimination(SETTINGS[name](), monkeypatch)
    try:
        dropped = buchberger(gens, field, order, weights, lambda lts, D: missing(lts, D) - 1)
    except MathInvariantError:
        return
    assert dropped != buchberger(gens, field, order)


def test_a_negative_missing_count_raises(monkeypatch):
    gens, field, order, weights, _ = _elimination(SETTINGS["rnc4"](), monkeypatch)
    count = StandardCount(weights)
    # the monomials outside the leading terms against a Hilbert function of
    # 10^6 more in every degree: fewer than it allows
    with pytest.raises(MathInvariantError, match="more leading terms"):
        buchberger(gens, field, order, weights, lambda lts, D: count(lts, D) - 10**6)
    # a count that never reads a degree complete drops nothing
    assert buchberger(gens, field, order, weights, lambda lts, D: 10**6) \
        == buchberger(gens, field, order)


def test_the_gate_counts_where_enough_pairs_wait(monkeypatch):
    # the degrees the loop counts, pinned: a degree is counted where at
    # least as many pairs of it wait, besides the one just popped, as the
    # count has new leading terms to take in. Over F 2 the quartic has
    # degrees (5 and 9) where the two are equal.
    expected = {
        "rnc4": [4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 18, 19, 21],
        "rnc5": [4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 18, 19, 21],
        "rnc4_F2": [4, 5, 6, 7, 8, 9],
    }
    for name, degrees in expected.items():
        gens, field, order, weights, missing = _elimination(SETTINGS[name](), monkeypatch)
        counted: list = []

        def count(lts, D):
            counted.append(D)
            return missing(lts, D)

        buchberger(gens, field, order, weights, count)
        assert counted == degrees, name


class TestStandardCount:
    def test_counts_monomials_outside_by_brute_force(self):
        weights = (1, 2, 1, 3)
        rng = random.Random(7)
        lts = [tuple(rng.randint(0, 3) for _ in weights) for _ in range(12)]
        count = StandardCount(weights)
        for k in range(len(lts) + 1):
            for D in (0, 3, 7, 11):
                assert count(lts[:k], D) == _outside(lts[:k], weights, D)

    def test_a_list_that_does_not_extend_the_last_starts_afresh(self):
        count = StandardCount((1, 1))
        assert count([(1, 0)], 3) == 1  # only y^3
        assert count([(0, 1)], 3) == 1  # only x^3, not the count of (x, y)
        assert count([(0, 1), (2, 0)], 3) == 0

    def test_wide_exponents_repack(self):
        count = StandardCount((1, 1))
        assert count([(200, 0)], 250) == 200  # x^a y^(250-a) for a < 200
        assert count([(200, 0), (0, 300)], 400) == 99  # 100 < a < 200

    def test_many_generators_widen_the_pivot_counts(self):
        # 280 generators of degree 23 on x0, x2, x4, each variable in 256 of
        # them: at 8 bits the summed supports of the colon by x1 carry into
        # the counts of x1, x3 and x5, and the pivot would be x1, which no
        # generator contains
        tri = [e for e in itertools.product(range(24), repeat=3) if sum(e) == 23]
        inner = [e for e in tri if all(e)][:20]
        gens = [e for e in tri if e not in inner]
        count = StandardCount((1,) * 6)
        lts = [(a, 0, b, 0, c, 0) for a, b, c in gens] + [(0, 1, 0, 0, 0, 0)]
        # outside: no x1, and the part on x0, x2, x4 outside the 280
        expected = sum((24 - sum(e) + 1) * (not any(all(map(le, g, e)) for g in gens))
                       for e in itertools.product(range(25), repeat=3) if sum(e) <= 24)
        assert count(lts, 24) == expected == 19590


def _outside(gens, weights, D: int) -> int:
    """Monomials of weighted degree D outside the ideal of ``gens``, one by one."""
    def tuples(v, left):
        if v == len(weights) - 1:
            if left % weights[v] == 0:
                yield (left // weights[v],)
            return
        for a in range(left // weights[v] + 1):
            for rest in tuples(v + 1, left - a * weights[v]):
                yield (a,) + rest
    return sum(not any(all(map(le, g, e)) for g in gens) for e in tuples(0, D))


@st.composite
def weighted_lists(draw):
    """The generators of ``monomial_ideals`` in a drawn order, with random
    positive weights: pure powers up to 40000 make the count repack."""
    R, gens = draw(monomial_ideals())
    weights = draw(st.lists(st.integers(1, 3), min_size=R.nvars, max_size=R.nvars))
    return tuple(weights), draw(st.permutations(gens))


@st.composite
def block_beside_lone(draw):
    """A connected block of 2-4 mixed generators on the first 2-3 variables
    (all contain x0), a lone mixed generator on two variables of its own and
    a pure power of the last variable, shuffled, and at times a generator
    that ties the lone one to the block."""
    b = draw(st.integers(2, 3))
    n = b + 3
    exps = st.integers(0, 3)
    block = [(draw(st.integers(1, 3)), *(draw(exps) for _ in range(b - 1)), 0, 0, 0)
             for _ in range(draw(st.integers(2, 4)))]
    lone = (0,) * b + (draw(st.integers(1, 2)), draw(st.integers(1, 2)), 0)
    power = (0,) * (n - 1) + (draw(st.integers(1, 4)),)
    gens = draw(st.permutations(block + [lone, power]))
    if draw(st.booleans()):
        gens.append((1,) + (0,) * (b - 1) + (1, 0, 0))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return tuple(weights), gens


class TestStandardCountProperties:
    """``StandardCount`` against a brute-force count on every prefix of a
    list, in every weighted degree up to 8."""

    @staticmethod
    def _check(weights, gens):
        count = StandardCount(weights)
        for k in range(len(gens) + 1):
            for D in range(9):
                assert count(gens[:k], D) == _outside(gens[:k], weights, D), (k, D)

    @settings(max_examples=100, deadline=None)
    @given(weighted_lists())
    def test_every_prefix_against_brute_force(self, drawn):
        self._check(*drawn)

    @settings(max_examples=60, deadline=None)
    @given(block_beside_lone())
    def test_lone_generators_beside_a_block(self, drawn):
        self._check(*drawn)
