"""A rank oracle for R(m|J) that shares no code with the Groebner stack.

For A = k[x] and J generated by forms of one degree d, the (u, v)-piece of
R(m|J) = (+) m^v J^u / m^(v+1) J^u is (J^u)_(ud+v). Its dimension H(u, v)
is the rank over k of the products of u generators of J times the monomials
of degree v, found here by row reduction (``conftest._row_echelon``). Rank
is exact over any field, so small fields are covered too. It is checked
against:

- ``hilbert_function`` on the Rees presentation, bidegree by bidegree;
- the ``e`` that ``ideal-mixed`` prints, on the Rees route and under
  ``--verify`` (over F 32003; see below for F 2 and F 3):
  e_i = Delta_u^i Delta_v^(r-i) H wherever H is the Hilbert polynomial,
  here r = 2 for three variables; and its ``spread``, the number of
  positive e_i;
- the monomial count of ``tests/test_count_oracle.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _row_echelon
from mixmult import (BigradedAlgebra, FieldSpec, GradedSetting, Ideal, Poly, Ring,
                     hilbert_function, parse_problem, rees_presentation)
from mixmult.cli import main
from mixmult.rings import monomials_of_bidegree
from test_count_oracle import _equigenerated_sample, mixed_by_count

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def rank_of_piece(gens: list[Poly], u: int, v: int) -> int:
    """H(u, v) = dim_k (J^u)_(ud+v) for J = (gens), forms of one degree d."""
    ring = gens[0].ring
    degree = u * gens[0].total_exp_degree() + v
    column = {e: k for k, e in enumerate(monomials_of_bidegree(ring, degree, 0))}
    monomials = [ring.monomial(m) for m in monomials_of_bidegree(ring, v, 0)]
    rows = []
    for factors in combinations_with_replacement(gens, u):
        product = ring.one()
        for g in factors:
            product = product * g
        for m in monomials:
            rows.append({column[e]: c for e, c in (product * m).terms.items()})
    return len(_row_echelon(rows, ring.field))


def mixed_by_rank(gens: list[Poly], base: tuple[int, int], r: int) -> list[int]:
    """e_0..e_r as the mixed differences Delta_u^i Delta_v^(r-i) H at
    ``base``, which must lie where H is the Hilbert polynomial."""
    H: dict = {}
    out = []
    for i in range(r + 1):
        k = r - i
        value = 0
        for a in range(i + 1):
            for b in range(k + 1):
                if (a, b) not in H:
                    H[(a, b)] = rank_of_piece(gens, base[0] + a, base[1] + b)
                value += (-1) ** (i - a + k - b) * comb(i, a) * comb(k, b) * H[(a, b)]
        out.append(value)
    return out


def _setting(text: str) -> GradedSetting:
    J = parse_problem(text).ideals["J"]
    return GradedSetting(J.ring, Ideal(J.ring), J)


def _quartic_text() -> str:
    """The rational normal quartic in P^4: the 2x2 minors of
    [[x0 x1 x2 x3], [x1 x2 x3 x4]]."""
    minors = [f"x{i}*x{j + 1} - x{i + 1}*x{j}" for i in range(4) for j in range(i + 1, 4)]
    return ("field F 32003\nring P4 vars x0:1 x1:1 x2:1 x3:1 x4:1\n"
            "ideal J in P4 = " + " ; ".join(minors) + "\n")


@pytest.mark.parametrize("text,top", [
    ((PROBLEMS / "twisted_cubic.mix").read_text(), 4),
    ((PROBLEMS / "three_points.mix").read_text(), 4),
    (_quartic_text(), 3),
], ids=["twisted_cubic", "three_points", "rational_normal_quartic"])
def test_rank_equals_the_presentation_pointwise(text, top):
    setting = _setting(text)
    _, pres = rees_presentation(setting)
    for u in range(top + 1):
        for v in range(top + 1):
            assert rank_of_piece(setting.J.gens, u, v) == hilbert_function(pres, u, v), (u, v)


def test_rank_reproduces_the_count_on_monomial_ideals():
    ring = Ring("R", ("x", "y", "z"), ((1, 0),) * 3, FieldSpec(32003))
    for exps in _equigenerated_sample():
        gens = [ring.monomial(e) for e in exps]
        assert mixed_by_rank(gens, (5, 5), 2) == mixed_by_count(exps), exps


NAMES = ("x", "y", "z")


@st.composite
def equigenerated(draw):
    """(p, generators): 1 to 4 nonzero forms of one degree d <= 2 in three
    variables over F_p, each as {exponent: coefficient}."""
    p = draw(st.sampled_from([32003, 2, 3]))
    d = draw(st.integers(1, 2))
    ring = Ring("R", NAMES, ((1, 0),) * 3, FieldSpec(p))
    monos = list(monomials_of_bidegree(ring, d, 0))
    form = st.dictionaries(st.sampled_from(monos), st.integers(1, p - 1),
                           min_size=1, max_size=len(monos))
    return p, draw(st.lists(form, min_size=1, max_size=4))


def _text(p: int, gens: list[dict]) -> str:
    def term(e, c):
        return "*".join([str(c)] + [f"{n}^{k}" for n, k in zip(NAMES, e) if k])

    forms = [" + ".join(term(e, c) for e, c in sorted(g.items())) for g in gens]
    return f"field F {p}\nring R vars x:1 y:1 z:1\nideal J in R = {' ; '.join(forms)}\n"


def _ideal_mixed(path: Path, *extra: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["ideal-mixed", "--file", str(path), "--ideal", "J", *extra])
    return code, out.getvalue()


@settings(max_examples=100, deadline=None)
@given(equigenerated())
@example((3, [{(0, 0, 2): 1, (0, 1, 1): 1, (0, 2, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1},
              {(0, 0, 2): 1}, {(0, 2, 0): 1, (0, 0, 2): 1}]))
def test_ideal_mixed_agrees_with_the_rank(tmp_path_factory, case):
    p, gens = case
    path = tmp_path_factory.mktemp("rank") / "random.mix"
    path.write_text(_text(p, gens))
    setting = _setting(path.read_text())
    # the series numerator t1^a t2^b over (1 - t1)^s (1 - t2)^3 agrees with
    # its polynomial from u = a - s + 1 and v = b - 2 on, for every term
    pring, pres = setting.presentation
    poly = BigradedAlgebra(pring, pres).polynomial
    s = len(setting.J.gens)
    base = (max(poly.stability[0] - s + 1, 0), max(poly.stability[1] - 2, 0))
    expected = mixed_by_rank(setting.J.gens, base, 2)

    code, out = _ideal_mixed(path)
    assert code == 0
    result = json.loads(out)["result"]
    e = [int(v) for v in result["e"]]
    assert e + [0] * (3 - len(e)) == expected
    # e_i > 0 exactly for i < l(J) over a polynomial ring: the rank oracle
    # counts the spread with no Groebner basis
    assert result["spread"] == str(sum(v > 0 for v in expected))
    # over F 2 and F 3 the chain's draws can fall short of generic: it runs
    # out of them (exit 3), or it reads other values, as the chain over F 3
    # did at seed 0 on z^2 + y*z + y^2 + x*z + x*y ; z^2 ; y^2 + z^2, e_2 = 1
    # for 2, and --verify refuses it (exit 2)
    code, out = _ideal_mixed(path, "--verify")
    assert code == 0 or (code in (2, 3) and p < 5)
    if code == 0:
        assert json.loads(out)["result"]["e"] == [str(v) for v in e]
