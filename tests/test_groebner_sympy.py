"""Differential test: reduced degrevlex bases against sympy's grevlex bases,
directly and through the elimination behind ``ideal_intersection``.

sympy is an optional test-only oracle; the test skips itself without it.
"""

from __future__ import annotations

import random

import pytest

from mixmult import FieldSpec, Ideal, Poly, groebner, ideal_intersection
from mixmult.instances import bigraded_ring, random_ideal_pair
from mixmult.rings import monomials_of_bidegree

sympy = pytest.importorskip("sympy")

P = 32003
F = FieldSpec(P)


def _monic(terms: dict) -> frozenset:
    # grevlex leading term: highest degree, then smallest last exponents
    lead = max(terms, key=lambda e: (sum(e), tuple(-x for x in reversed(e))))
    inv = pow(terms[lead], P - 2, P)
    return frozenset((e, c * inv % P) for e, c in terms.items())


def _expr(g: dict, syms):
    return sum(c * sympy.Mul(*[s**k for s, k in zip(syms, e)]) for e, c in g.items())


def _sympy_basis(gens: list[dict], nvars: int) -> frozenset:
    syms = sympy.symbols(f"v0:{nvars}")
    exprs = [_expr(g, syms) for g in gens]
    basis = sympy.groebner(exprs, *syms, modulus=P, order="grevlex")
    # sympy prints residues symmetrically (-1, not 32002): reduce them mod P
    return frozenset(
        _monic({e: int(c) % P for e, c in sympy.Poly(g, *syms).terms()})
        for g in basis.exprs)


def _forms(rng, ring, bidegree, count):
    monos = list(monomials_of_bidegree(ring, *bidegree))
    return [{e: rng.randrange(1, P) for e in monos} for _ in range(count)]


def _monomials(rng, ring, count):
    gens = []
    for _ in range(count):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(2, 4)):
            exp[rng.randrange(ring.nvars)] += 1
        gens.append({tuple(exp): rng.randrange(1, P)})
    return gens


@pytest.mark.parametrize("shape", ["forms_11", "forms_21", "monomial"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_basis_matches_sympy(shape, seed):
    ring = bigraded_ring(3, 3)
    rng = random.Random(f"{shape}-{seed}")
    if shape == "forms_11":
        gens = _forms(rng, ring, (1, 1), 3)
    elif shape == "forms_21":
        gens = _forms(rng, ring, (2, 1), 3)
    else:
        gens = _monomials(rng, ring, 5)
    ours = Ideal(ring, [Poly(ring, g) for g in gens]).groebner()
    assert frozenset(_monic(g.terms) for g in ours) == _sympy_basis(gens, ring.nvars)


def _sympy_intersection(I: Ideal, J: Ideal) -> frozenset:
    # lex with t first on t*I + (1 - t)*J, keep the t-free elements, then
    # their grevlex basis
    nvars = I.ring.nvars
    syms = sympy.symbols(f"v0:{nvars}")
    t = sympy.Symbol("t")
    exprs = [t * _expr(f.terms, syms) for f in I.gens]
    exprs += [(1 - t) * _expr(g.terms, syms) for g in J.gens]
    lex = sympy.groebner(exprs, t, *syms, modulus=P, order="lex")
    free = [{e[1:]: int(c) % P for e, c in sympy.Poly(g, t, *syms).terms()}
            for g in lex.exprs if not sympy.Poly(g, t, *syms).degree(t)]
    return _sympy_basis(free, nvars)


@pytest.mark.parametrize("seed", range(12))
def test_intersection_matches_sympy(seed, monkeypatch):
    rng = random.Random(f"meet-{seed}")
    while True:
        I, J = random_ideal_pair(rng)
        if not (I.is_unit or J.is_unit or (I.is_monomial and J.is_monomial)):
            break
    calls = []
    real = groebner.eliminate
    monkeypatch.setattr(groebner, "eliminate", lambda *a: calls.append(a) or real(*a))
    ours = ideal_intersection(I, J).groebner()
    assert len(calls) == 1
    assert frozenset(_monic(g.terms) for g in ours) == _sympy_intersection(I, J)
