"""Differential test: reduced degrevlex bases against sympy's grevlex bases.

sympy is an optional test-only oracle; the test skips itself without it.
"""

from __future__ import annotations

import random

import pytest

from mixmult import FieldSpec, Ideal, Poly
from mixmult.instances import bigraded_ring
from mixmult.rings import monomials_of_bidegree

sympy = pytest.importorskip("sympy")

P = 32003
F = FieldSpec(P)


def _monic(terms: dict) -> frozenset:
    # grevlex leading term: highest degree, then smallest last exponents
    lead = max(terms, key=lambda e: (sum(e), tuple(-x for x in reversed(e))))
    inv = pow(terms[lead], P - 2, P)
    return frozenset((e, c * inv % P) for e, c in terms.items())


def _sympy_basis(gens: list[dict], nvars: int) -> frozenset:
    syms = sympy.symbols(f"v0:{nvars}")
    exprs = [sum(c * sympy.Mul(*[s**k for s, k in zip(syms, e)]) for e, c in g.items())
             for g in gens]
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
