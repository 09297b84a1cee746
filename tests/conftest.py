"""Shared independent oracles for the test suite.

The membership oracle solves a linear system over the monomials of a bounded
degree window, never touching the division algorithm it is used to check.
The saturation oracle iterates colons, never touching the direct routes of
``saturation`` it is used to check. The filter-regularity oracle builds the
colon the Hilbert-series certificate avoids. The closed-form oracles give
e_i(m|J) by formula under labelled hypotheses, apart from the chain.
"""

from __future__ import annotations

from typing import Optional

from mixmult import (GradedSetting, Ideal, InputError, Poly, Ring, RunConfig, height_of,
                     ideal_quotient, ideal_sum, order_of, saturation, total_multiplicity)
from mixmult.bigraded import BigradedAlgebra
from mixmult.instances import InstanceLabels
from mixmult.rings import monomials_of_bidegree


def is_single_graded(ring: Ring) -> bool:
    """Every variable has second degree 0."""
    return all(b == 0 for _, b in ring.bidegrees)


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


def _reduce_row(row: dict, pivots: dict[int, dict], field) -> dict:
    """``row``, a sparse vector {column: nonzero value}, less multiples of
    the ``pivots`` until its leading column has none (empty when the row is
    in their span). Changes ``row`` in place."""
    while row:
        col = min(row)
        pivot = pivots.get(col)
        if pivot is None:
            break
        c = row[col]
        for k, v in pivot.items():
            value = field.sub(row.get(k, field.zero), field.mul(c, v))
            if value:
                row[k] = value
            else:
                del row[k]
    return row


def _row_echelon(rows, field) -> dict[int, dict]:
    """Echelon form of the sparse ``rows`` by plain Gaussian elimination:
    {pivot column: monic row leading there}, one entry per unit of rank."""
    pivots: dict[int, dict] = {}
    for row in rows:
        r = _reduce_row(dict(row), pivots, field)
        if r:
            col = min(r)
            inv = field.inv(r[col])
            pivots[col] = {k: field.mul(inv, v) for k, v in r.items()}
    return pivots


def _sparse(vector) -> dict:
    return {k: v for k, v in enumerate(vector) if v}


def _row_reduce_solve(rows, target, field):
    """Is ``target`` in the span of the dense ``rows``?"""
    pivots = _row_echelon(map(_sparse, rows), field)
    return not _reduce_row(_sparse(target), pivots, field)


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
        if not is_single_graded(ring):
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


def closed_form_oracles(
    setting: GradedSetting, labels: InstanceLabels, config: RunConfig = RunConfig()
) -> dict:
    """Formula values available under the labelled hypotheses.

    Returns a dict with any of the keys ``equigenerated`` (list of e_i for
    i <= height, when J is generated in one degree), ``order`` (the degree-1
    step for a polynomial ambient ring), and ``least_degrees`` (the two-form
    product formula). Only formulas whose hypotheses hold are included.
    """
    out: dict = {}
    ht = height_of(setting, config)
    ambient_polynomial = setting.defining.is_zero
    if not ideal_sum(setting.defining, setting.J).is_unit:
        if setting.equigenerated:
            c = setting.generator_degrees[0]
            e_ambient = total_multiplicity(setting.defining)[1]
            values = [c ** i * e_ambient for i in range(ht)]
            entry = {"c": c, "values": values}
            if labels.generically_complete_intersection and setting.spread >= ht + 1:
                e_quot = total_multiplicity(ideal_sum(setting.defining, setting.J))[1]
                entry["top"] = c ** ht * e_ambient - e_quot
            out["equigenerated"] = entry
    if ambient_polynomial and ht >= 2:
        out["order"] = {"e1": order_of(setting)}
    if ambient_polynomial and ht >= 2 and labels.has_coprime_least_forms:
        degrees = sorted(g.total_exp_degree() for g in setting.J.groebner())
        c1, c2 = degrees[0], degrees[1]
        if ht >= 3:
            out["least_degrees"] = {"c1": c1, "c2": c2, "e2": c1 * c2}
        elif labels.generically_complete_intersection:
            e_quot = total_multiplicity(ideal_sum(setting.defining, setting.J))[1]
            out["least_degrees"] = {"c1": c1, "c2": c2, "e2": c1 * c2 - e_quot}
    if not out:
        raise InputError("no closed-form hypothesis holds for this instance")
    return out
