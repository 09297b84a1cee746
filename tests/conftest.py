"""Shared independent oracles for the test suite.

The membership oracle solves a linear system over the monomials of a bounded
degree window, never touching the division algorithm it is used to check.
The saturation oracle iterates colons, never touching the direct routes of
``saturation`` it is used to check. The filter-regularity oracle builds the
colon the Hilbert-series certificate avoids.
"""

from __future__ import annotations

from typing import Optional

from mixmult import Ideal, Poly, ideal_quotient, saturation
from mixmult.bigraded import BigradedAlgebra
from mixmult.rings import monomials_of_bidegree


def saturation_by_colon(I: Ideal, J: Ideal, cap: int = 100) -> Ideal:
    """I : J^infinity by iterated colon until the reduced basis stops
    changing: the definition, and the route ``saturation`` used to take."""
    prev = I
    for _ in range(cap):
        nxt = ideal_quotient(prev, J)
        if nxt.same_ideal(prev):
            return prev
        prev = nxt
    raise AssertionError("iterated colon did not stabilize")


def colon_escape(alg: BigradedAlgebra, prev: Ideal, z: Poly) -> Optional[Poly]:
    """A generator of prev : z outside prev : Rpp^infinity, or None.

    None exactly when (prev : z) <= (prev : Rpp^infinity), i.e. when
    (prev : z)/prev is Rpp-torsion and z is filter-regular over prev.
    """
    sat = saturation(prev, alg.rpp_ideal)
    for g in ideal_quotient(prev, z).groebner():
        if not sat.contains(g):
            return g
    return None


def _row_reduce_solve(rows, target, field):
    """Is ``target`` in the row span? Plain Gaussian elimination."""
    if not rows:
        return all(not c for c in target)
    width = len(target)
    mat = [list(r) for r in rows]
    tgt = list(target)
    pivot_cols = []
    r = 0
    for col in range(width):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = field.inv(mat[r][col])
        mat[r] = [field.mul(inv, v) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                c = mat[i][col]
                mat[i] = [field.sub(a, field.mul(c, b)) for a, b in zip(mat[i], mat[r])]
        if tgt[col]:
            c = tgt[col]
            tgt = [field.sub(a, field.mul(c, b)) for a, b in zip(tgt, mat[r])]
        pivot_cols.append(col)
        r += 1
        if r == len(mat):
            break
    return all(not c for c in tgt)


def homogeneous_membership_oracle(f: Poly, I: Ideal) -> bool:
    """Exact membership for a bihomogeneous f in a bihomogeneous ideal.

    Spans the bidegree piece of the ideal by all monomial multiples of the
    generators and solves for f by row reduction. Complete because graded
    pieces are finite dimensional.
    """
    ring = f.ring
    bideg = f.bidegree()
    assert bideg is not None, "oracle needs a homogeneous polynomial"
    u, v = bideg
    basis = {exp: k for k, exp in enumerate(monomials_of_bidegree(ring, u, v))}
    rows = []
    for g in I.gens:
        gu, gv = g.bidegree()
        for mult in monomials_of_bidegree(ring, u - gu, v - gv):
            prod = ring.monomial(mult) * g
            row = [ring.field.zero] * len(basis)
            for exp, c in prod.terms.items():
                row[basis[exp]] = c
            rows.append(row)
    target = [ring.field.zero] * len(basis)
    for exp, c in f.terms.items():
        target[basis[exp]] = c
    return _row_reduce_solve(rows, target, ring.field)


def truncated_membership_oracle(f: Poly, I: Ideal, max_degree: int) -> bool:
    """Sound membership certificate search with multiplier degree bounded.

    A True answer proves membership; False only means no witness exists in
    the window.
    """
    ring = f.ring
    monos = []
    for d in range(max_degree + 1):
        monos.extend(monomials_of_bidegree(ring, d, 0))
        if not ring.is_single_graded:
            monos = None
            break
    if monos is None:  # enumerate by exponent box instead for bigraded rings
        monos = []
        for d1 in range(max_degree + 1):
            for d2 in range(max_degree + 1 - d1):
                monos.extend(monomials_of_bidegree(ring, d1, d2))
    basis = {}
    rows = []
    for g in I.gens:
        for mult in monos:
            prod = ring.monomial(mult) * g
            if prod.total_exp_degree() > max_degree:
                continue
            for exp in prod.terms:
                basis.setdefault(exp, len(basis))
    for exp in f.terms:
        basis.setdefault(exp, len(basis))
    for g in I.gens:
        for mult in monos:
            prod = ring.monomial(mult) * g
            if prod.total_exp_degree() > max_degree:
                continue
            row = [ring.field.zero] * len(basis)
            for exp, c in prod.terms.items():
                row[basis[exp]] = c
            rows.append(row)
    target = [ring.field.zero] * len(basis)
    for exp, c in f.terms.items():
        target[basis[exp]] = c
    return _row_reduce_solve(rows, target, ring.field)
