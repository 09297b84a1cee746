"""Degrees of Stueckrad-Vogel intersection cycles via mixed multiplicities.

For equidimensional subschemes X, Y of P^n the ruled join is Proj of
A = k[x_0..x_n, y_0..y_n]/(I_X, I_Y) and the diagonal ideal is
J = (x_0 - y_0, ..., x_n - y_n). The degree of the i-th intersection cycle is
the difference e_{i-1}(m|J) - e_i(m|J), so the degrees telescope to e_0.

The join is a ``GradedSetting``: the ambient ring, I_X + I_Y lifted into it,
and J. The e_i come off the diagonal of the Rees algebra A[Jt] graded as
R(m|J) (``rees_bigraded_crosscheck``) with no random draw, so a negative
cycle degree is a bug: ``sv_degrees`` raises ``MathInvariantError`` (exit 2
in the CLI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InputError, MathInvariantError
from .groebner import Ideal
from .ideal_mixed import GradedSetting, rees_bigraded_crosscheck
from .rings import Poly, Ring


def make_join(I_X: Ideal, I_Y: Ideal) -> GradedSetting:
    """The join of V(I_X) in P^n (x-ring) and V(I_Y) in P^n (y-ring): its
    ambient ring, the lifted I_X + I_Y, and J = (x_0 - y_0, ..., x_n - y_n)."""
    rx, ry = I_X.ring, I_Y.ring
    if rx.nvars != ry.nvars:
        raise InputError("the two projective spaces have different dimensions")
    if any(d != (1, 0) for d in rx.bidegrees + ry.bidegrees):
        raise InputError("join factors must be standard graded")
    if set(rx.variables) & set(ry.variables):
        raise InputError("variable names of the two factors must be disjoint")
    if I_X.is_unit or I_Y.is_unit:
        raise InputError("empty subscheme in the join")
    n = rx.nvars - 1
    ring = Ring(
        f"join_{rx.name}_{ry.name}",
        rx.variables + ry.variables,
        ((1, 0),) * (2 * n + 2),
        rx.field,
    )
    lift_x = [Poly(ring, {e + (0,) * (n + 1): c for e, c in g.terms.items()}, _trusted=True)
              for g in I_X.gens]
    lift_y = [Poly(ring, {(0,) * (n + 1) + e: c for e, c in g.terms.items()}, _trusted=True)
              for g in I_Y.gens]
    diag = [ring.var(i) - ring.var(n + 1 + i) for i in range(n + 1)]
    return GradedSetting(ring, Ideal(ring, lift_x + lift_y), Ideal(ring, diag))


@dataclass
class SVReport:
    """Cycle degrees (index 1..n+1) with the underlying e-sequence."""

    degrees: list[int]
    e_list: list[int]  # e_0 .. e_{n+1}, zero beyond the analytic spread
    seeds: list[int]  # always empty: no seed is drawn


def sv_degrees(join: GradedSetting) -> SVReport:
    """deg v_i = e_{i-1} - e_i for i = 1..n+1, off the Rees diagonal of the
    join (``make_join``) padded or cut to e_0..e_{n+1}. A cut entry is zero:
    e_i = 0 for i >= l(J), and the n+1 diagonal forms give l(J) <= n+1."""
    size = len(join.J.gens) + 1
    e_full = rees_bigraded_crosscheck(join).diagonal()
    if any(e_full[size:]):
        raise MathInvariantError(f"nonzero e_i beyond i = {size - 1}: {e_full}")
    e_full = (e_full + [0] * size)[:size]
    degs = [e_full[i - 1] - e_full[i] for i in range(1, size)]
    if min(degs) < 0:
        raise MathInvariantError(f"negative cycle degree in {degs}")
    return SVReport(degs, e_full, [])


def bezout_check(report: SVReport, deg_x: Optional[int] = None,
                 deg_y: Optional[int] = None) -> bool:
    """Telescoping identity, plus the Bezout product when labels are given."""
    ok = sum(report.degrees) == report.e_list[0]
    if deg_x is not None and deg_y is not None:
        ok = ok and sum(report.degrees) == deg_x * deg_y
    return ok
