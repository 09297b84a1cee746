"""Degrees of Stueckrad-Vogel intersection cycles via mixed multiplicities.

For equidimensional subschemes X, Y of P^n the ruled join is Proj of
A = k[x_0..x_n, y_0..y_n]/(I_X, I_Y) and the diagonal ideal is
J = (x_0 - y_0, ..., x_n - y_n). The degree of the i-th intersection cycle is
the difference e_{i-1}(m|J) - e_i(m|J), so the degrees telescope to e_0.

The generic hyperplanes of the classical construction live over a purely
transcendental extension; here random scalars stand in for the
transcendentals. A negative cycle degree can only come from unlucky scalars,
so ``sv_degrees`` retries it once with a second seed; when both seeds give a
negative degree it raises ``GenericityExhausted`` (exit 3 in the CLI).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .config import RunConfig, certified_search
from .errors import InputError
from .groebner import Ideal
from .ideal_mixed import GradedSetting, mixed_report
from .rings import Poly, Ring


@dataclass
class JoinSetting:
    """The ruled-join ambient ring with the diagonal ideal."""

    n: int
    ring: Ring
    setting: GradedSetting

    @property
    def diagonal(self) -> Ideal:
        return self.setting.J


def make_join(I_X: Ideal, I_Y: Ideal) -> JoinSetting:
    """Assemble the join of V(I_X) in P^n (x-ring) and V(I_Y) in P^n (y-ring)."""
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
    setting = GradedSetting(ring, Ideal(ring, lift_x + lift_y), Ideal(ring, diag))
    return JoinSetting(n, ring, setting)


@dataclass
class SVReport:
    """Cycle degrees (index 1..n+1) with the underlying e-sequence."""

    degrees: list[int]
    e_list: list[int]  # e_0 .. e_{n+1}, zero beyond the analytic spread
    seeds: list[int]


def sv_degrees(js: JoinSetting, config: RunConfig = RunConfig()) -> SVReport:
    """deg v_i = e_{i-1} - e_i for i = 1..n+1, from the saturation chain.

    A negative difference signals bad randomness: the chain is redrawn once
    from ``config.seed + 0x5DEECE66D``, and ``seeds`` lists the seeds tried.
    """
    candidates = (config.seed, config.seed + 0x5DEECE66D)
    seeds: list[int] = []

    def draw() -> list[int]:
        seeds.append(candidates[len(seeds)])
        rep = mixed_report(js.setting, replace(config, seed=seeds[-1]))
        return rep.e + [0] * (js.n + 2 - len(rep.e))

    def certify(e_full: list[int]) -> Optional[list[int]]:
        degs = [e_full[i - 1] - e_full[i] for i in range(1, js.n + 2)]
        return degs if min(degs) >= 0 else None

    e_full, degs = certified_search(draw, certify, len(candidates),
                                    "seed giving nonnegative cycle degrees")
    return SVReport(degs, e_full, seeds)


def bezout_check(
    js: JoinSetting,
    report: SVReport,
    deg_x: Optional[int] = None,
    deg_y: Optional[int] = None,
) -> bool:
    """Telescoping identity, plus the Bezout product when labels are given."""
    ok = sum(report.degrees) == report.e_list[0]
    if deg_x is not None and deg_y is not None:
        ok = ok and sum(report.degrees) == deg_x * deg_y
    return ok
