"""Mixed multiplicities of a standard bigraded algebra R = (poly ring)/I.

Implements the dimension formulas for the degree and partial degrees of the
bigraded Hilbert polynomial, filter-regular sequence certification, the
positivity criterion for the top-diagonal coefficients e_ij, and their
computation as multiplicities of saturated quotients.

An element z is filter-regular over a previous ideal B when (B : z)/B
vanishes in all large bidegrees, i.e. when its Hilbert polynomial is zero.
Its series comes from those of R/B and R/(B + (z)) (``colon_numerator``), so
no colon is built. A finitely generated bigraded module vanishes in all large
bidegrees exactly when it is Rpp-torsion, where Rpp is generated by the
products of one variable of each degree kind, so this is the containment
(B : z) <= (B : Rpp^infinity).

A certificate carries the ideal B its certified elements have reached. That
is the handle ``colon_numerator`` built, basis and all, to certify the last
element (``ideal_sum`` keeps one handle per sum, and a sum's basis starts
from its summand's), and the next element starts from it. Every element is
certified over this unsaturated B.

Saturations by Rpp start from the saturation before them, by the identity
sat(B + (z)) = sat(sat(B) + (z)): B lies in sat(B), and sat(B) + (z) lies in
sat(B + (z)), which is saturated. A positive cell's multiplicity is read off
sat(sat(B) + (y_1..y_j)) for B the ideal of its (1,0)-prefix, and
``e_table_full(verify=True)`` certifies one (1,0)-chain for all its cells and
saturates along it, each sat_i = sat(sat_{i-1} + (x_i)).

Every saturation by Rpp uses the product rule. Rpp = R1 * R2 exactly, where
R1 and R2 are generated by the (1,0)- and the (0,1)-variables, and
(R1 R2)^n = R1^n R2^n, so

    I : Rpp^infinity = (I : R1^infinity) : R2^infinity.

Both right-hand saturations are by variables, which Bayer's trick handles
without elimination (see ``groebner``), and ``saturation``'s exits for
variables often spare it too: a variable that no generator involves ends
the saturation at once, and the linear elements of a bihomogeneous basis
are pure (1,0)- or (0,1)-forms, so each variable of R1 that leads one of
the chain's (1,0)-forms is dropped from R1 before any step.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Optional, Sequence

from .config import RunConfig, certified_search
from .errors import InputError, MathInvariantError
from .groebner import Ideal, ideal_sum, krull_dim, saturation
from .hilbert import (ETable, HilbertPoly, HilbertSeries, colon_numerator,
                      e_table, polynomial_of, series_of, total_multiplicity)
from .rings import Bidegree, Poly, Ring, monomials_of_bidegree, swap_ring, transport


class BigradedAlgebra:
    """A standard bigraded quotient with its distinguished variable ideals."""

    def __init__(self, ring: Ring, defining: Ideal):
        if not ring.is_standard_bigraded:
            raise InputError("ring is not standard bigraded")
        if defining.ring != ring:
            raise InputError("defining ideal lives in a different ring")
        for g in defining.gens:
            if g.bidegree() is None:
                raise InputError(f"defining ideal has inhomogeneous generator {g}")
        self.ring, self.defining = ring, defining

    @cached_property
    def r1_ideal(self) -> Ideal:
        """Ideal generated by the (1,0)-variables."""
        return Ideal(self.ring, [self.ring.var(i) for i in self.ring.first_kind])

    @cached_property
    def r2_ideal(self) -> Ideal:
        """Ideal generated by the (0,1)-variables."""
        return Ideal(self.ring, [self.ring.var(i) for i in self.ring.second_kind])

    @cached_property
    def rpp_ideal(self) -> Ideal:
        """Ideal generated by all products of one variable of each kind."""
        gens = [
            self.ring.var(i) * self.ring.var(j)
            for i in self.ring.first_kind
            for j in self.ring.second_kind
        ]
        return Ideal(self.ring, gens)

    def _need_both_kinds(self) -> None:
        """Rpp is zero, and every module torsion, without both kinds."""
        if not (self.ring.first_kind and self.ring.second_kind):
            raise InputError("this command needs variables of both bidegrees "
                             "(1,0) and (0,1)")

    def saturate(self, I: Ideal) -> Ideal:
        """I : Rpp^infinity, by the product rule (I : R1^inf) : R2^inf."""
        self._need_both_kinds()
        return saturation(saturation(I, self.r1_ideal), self.r2_ideal)

    @cached_property
    def sat0(self) -> Ideal:
        """Preimage of 0 : Rpp^infinity in the quotient."""
        return self.saturate(self.defining)

    @cached_property
    def degrees(self) -> "DegreesReport":
        """``degrees_report`` of this algebra."""
        return degrees_report(self)

    @cached_property
    def polynomial(self) -> HilbertPoly:
        """The Hilbert polynomial of the quotient."""
        return polynomial_of(series_of(self.defining))

    def swapped(self) -> "BigradedAlgebra":
        ring2 = swap_ring(self.ring)
        return BigradedAlgebra(ring2, Ideal(ring2, [transport(g, ring2) for g in self.defining.gens]))


class DegreesReport:
    """Degree data of the Hilbert polynomial via saturation dimensions.

    ``r``, ``r1``, ``r2`` are None exactly when the polynomial vanishes (the
    saturation is the unit ideal). The plain quotient dimensions are reported
    alongside because they stay meaningful in that degenerate case.
    """

    def __init__(self, r: Optional[int], r1: Optional[int], r2: Optional[int],
                 dim_sat: int, dim_sat_plus_r2: int, dim_sat_plus_r1: int,
                 dim_total: int, dim_mod_r1: int, dim_mod_r2: int):
        self.r, self.r1, self.r2 = r, r1, r2
        self.dim_sat = dim_sat
        self.dim_sat_plus_r2, self.dim_sat_plus_r1 = dim_sat_plus_r2, dim_sat_plus_r1
        self.dim_total, self.dim_mod_r1, self.dim_mod_r2 = dim_total, dim_mod_r1, dim_mod_r2

    @property
    def p_is_zero(self) -> bool:
        return self.r is None


def degrees_report(alg: BigradedAlgebra) -> DegreesReport:
    """Compute deg P and both partial degrees from saturation dimensions.

    Cross-checks the three numbers against the binomial-basis polynomial,
    which is computed independently from the series numerator.
    """
    sat = alg.sat0
    dim_total = krull_dim(alg.defining)
    dim_mod_r1 = krull_dim(ideal_sum(alg.defining, alg.r1_ideal))
    dim_mod_r2 = krull_dim(ideal_sum(alg.defining, alg.r2_ideal))
    P = alg.polynomial
    if sat.is_unit:
        if not P.is_zero:
            raise MathInvariantError("vanishing saturation with nonzero polynomial")
        return DegreesReport(None, None, None, -1, -1, -1,
                             dim_total, dim_mod_r1, dim_mod_r2)
    d = krull_dim(sat)
    d2 = krull_dim(ideal_sum(sat, alg.r2_ideal))
    d1 = krull_dim(ideal_sum(sat, alg.r1_ideal))
    r, r1, r2 = d - 2, d2 - 1, d1 - 1
    if P.is_zero:
        raise MathInvariantError("nonunit saturation with vanishing polynomial")
    if (P.total_degree, *P.degrees) != (r, r1, r2):
        raise MathInvariantError(
            f"polynomial degrees {(P.total_degree, *P.degrees)} disagree "
            f"with saturation dimensions {(r, r1, r2)}"
        )
    if r > r1 + r2:
        raise MathInvariantError("total degree exceeds the sum of partial degrees")
    return DegreesReport(r, r1, r2, d, d2, d1, dim_total, dim_mod_r1, dim_mod_r2)


class FilterStep:
    def __init__(self, element: Poly, ok: bool):
        self.element, self.ok = element, ok

    def __bool__(self) -> bool:  # a step certifies its element only when it passed
        return self.ok


class FilterRegularCertificate:
    """Certified steps; ``ideal`` is the defining ideal plus the elements of
    the steps that passed, the ideal a continuation certifies over."""

    def __init__(self, ideal: Ideal, steps: Sequence[FilterStep] = ()):
        self.ideal, self.steps, self.ok = ideal, list(steps), True

    @property
    def elements(self) -> list[Poly]:
        return [s.element for s in self.steps]


def _filter_step(alg: BigradedAlgebra, prev: Ideal, z: Poly) -> FilterStep:
    if z.bidegree() is None:
        raise InputError(f"inhomogeneous sequence element {z}")
    alg._need_both_kinds()
    torsion = HilbertSeries(alg.ring, colon_numerator(prev, z))
    return FilterStep(z, polynomial_of(torsion).is_zero)


def is_filter_regular(
    alg: BigradedAlgebra,
    seq: Sequence[Poly],
    cert: Optional[FilterRegularCertificate] = None,
) -> FilterRegularCertificate:
    """Check each element of a candidate sequence for filter-regularity.

    With ``cert``, the sequence continues that certified prefix; its steps
    are appended to a copy.
    """
    if cert is None:
        cert = FilterRegularCertificate(alg.defining)
    else:
        cert = FilterRegularCertificate(cert.ideal, cert.steps)
    for z in seq:
        step = _filter_step(alg, cert.ideal, z)
        cert.steps.append(step)
        if not step.ok:
            cert.ok = False
            break
        cert.ideal = ideal_sum(cert.ideal, [z])
    return cert


def random_combination(forms: Sequence[Poly], degree: int, rng: random.Random,
                       config: RunConfig) -> Poly:
    """A random nonzero sum of the lifts of ``forms`` to ``degree`` by every
    first-kind monomial, each with its own coefficient below the span of
    ``config``."""
    ring = forms[0].ring
    span = config.span(ring.field)
    while True:
        acc = ring.zero()
        for g in forms:
            for exp in monomials_of_bidegree(ring, degree - g.total_exp_degree(), 0):
                c = rng.randrange(span)
                if c:
                    acc = acc + ring.monomial(exp, c) * g
        if not acc.is_zero:
            return acc


def _random_kind_element(alg: BigradedAlgebra, kind: Bidegree, rng: random.Random,
                         config: RunConfig) -> Poly:
    indices = alg.ring.first_kind if kind == (1, 0) else alg.ring.second_kind
    if not indices:
        raise InputError(f"ring has no variable of bidegree {kind}")
    return random_combination([alg.ring.var(i) for i in indices], 1, rng, config)


def find_filter_regular(
    alg: BigradedAlgebra,
    pattern: Sequence[Bidegree],
    config: RunConfig = RunConfig(),
) -> FilterRegularCertificate:
    """Search random linear forms of the requested kinds, verifying each step.

    Every element is drawn as a random combination of the variables of its
    kind and certified before being kept; failures retry with fresh
    randomness up to ``config.max_retries`` per position.
    """
    for kind in pattern:
        if kind not in ((1, 0), (0, 1)):
            raise InputError(f"pattern entries must be (1,0) or (0,1), got {kind}")
    cert = FilterRegularCertificate(alg.defining)
    _extend(alg, cert, pattern, config, "filter-regular element of bidegree {}")
    return cert


def _extend(alg: BigradedAlgebra, cert: FilterRegularCertificate,
            pattern: Sequence[Bidegree], config: RunConfig, what: str) -> None:
    """Append one certified random element per kind in ``pattern`` to
    ``cert``, each drawn from ``config.seed`` and certified over
    ``cert.ideal`` as it stands."""
    rng = random.Random(config.seed)
    for kind in pattern:
        z, step = certified_search(
            lambda: _random_kind_element(alg, kind, rng, config),
            lambda z: _filter_step(alg, cert.ideal, z),
            config.max_retries, what.format(kind))
        cert.steps.append(step)
        cert.ideal = ideal_sum(cert.ideal, [z])


def _check_top_diagonal(r: Optional[int], i: int, j: int) -> None:
    """Raise unless (i, j) lies on the top diagonal of a nonzero polynomial
    of total degree ``r`` (None when the polynomial vanishes)."""
    if r is None:
        raise InputError("the Hilbert polynomial vanishes; no top diagonal")
    if i < 0 or j < 0 or i + j != r:
        raise InputError(f"(i, j) = {(i, j)} is not on the top diagonal of degree {r}")


def _witness_dim(alg: BigradedAlgebra, sat: Ideal) -> int:
    """dim of the quotient by ``sat`` plus all (1,0)-variables, for ``sat``
    the saturation of the defining ideal plus i certified (1,0)-elements:
    j + 1 exactly when the cell's e_ij is positive."""
    return krull_dim(ideal_sum(sat, alg.r1_ideal))


def e_positivity(
    alg: BigradedAlgebra,
    i: int,
    j: int,
    config: RunConfig = RunConfig(),
) -> tuple[bool, int, FilterRegularCertificate]:
    """Positivity test for e_ij: does the saturated quotient by i generic
    (1,0)-forms plus all (1,0)-variables have dimension j + 1?"""
    _check_top_diagonal(alg.degrees.r, i, j)
    cert = find_filter_regular(alg, [(1, 0)] * i, config)
    witness_dim = _witness_dim(alg, alg.saturate(cert.ideal))
    return witness_dim == j + 1, witness_dim, cert


def e_value_via_criterion(alg: BigradedAlgebra, i: int, j: int,
                          sequence: Sequence[Poly]) -> int:
    """e_ij as the multiplicity of R/(x_1..x_i, y_1..y_j) : Rpp^infinity for
    a named ``sequence``: the i (1,0)-elements, then the j (0,1)-elements.

    Returns 0 when the positivity test fails. In the positive branch the
    saturated quotient must have dimension exactly 2. A random sequence is
    ``e_positivity`` followed by ``e_value_from_prefix``.
    """
    seq = list(sequence)
    if len(seq) != i + j:
        raise InputError(f"sequence must have {i + j} elements")
    xs, ys = seq[:i], seq[i:]
    if any(z.bidegree() != (1, 0) for z in xs) or any(
        z.bidegree() != (0, 1) for z in ys
    ):
        raise InputError("sequence must list (1,0)-elements then (0,1)-elements")
    _check_top_diagonal(alg.degrees.r, i, j)
    cert_x = is_filter_regular(alg, xs)
    if not cert_x.ok:
        raise InputError("supplied sequence is not filter-regular")
    sat_x = alg.saturate(cert_x.ideal)
    positive = _witness_dim(alg, sat_x) == j + 1
    cert = is_filter_regular(alg, ys, cert_x)
    if not cert.ok:
        raise InputError("supplied sequence is not filter-regular")
    return _saturated_multiplicity(alg, cert_x, cert, sat_x) if positive else 0


def e_value_from_prefix(
    alg: BigradedAlgebra,
    cert_x: FilterRegularCertificate,
    j: int,
    config: RunConfig = RunConfig(),
    sat_x: Optional[Ideal] = None,
) -> int:
    """e_ij of a positive cell, from the certified (1,0)-prefix of its
    positivity test: extend it by j random (0,1)-elements, drawn from
    ``config.seed + 1`` and certified one by one over ``cert_x.ideal`` and
    the elements before, and take the multiplicity. ``sat_x`` is the
    saturation of ``cert_x.ideal`` by Rpp when the caller holds it."""
    cert = FilterRegularCertificate(cert_x.ideal, cert_x.steps)
    _extend(alg, cert, [(0, 1)] * j, config.with_seed(config.seed + 1),
            "filter-regular (0,1)-element")
    if sat_x is None:
        sat_x = alg.saturate(cert_x.ideal)
    return _saturated_multiplicity(alg, cert_x, cert, sat_x)


def _saturated_multiplicity(alg: BigradedAlgebra, cert_x: FilterRegularCertificate,
                            cert: FilterRegularCertificate, sat_x: Ideal) -> int:
    """The multiplicity of R/sat(B + (ys)), for B = ``cert_x.ideal`` and ys
    the (0,1)-elements ``cert`` adds to it, read off sat(sat_x + (ys)) for
    ``sat_x`` = sat(B): the same ideal, as sat(B + z) = sat(sat(B) + z).
    Where B is saturated, sat_x + (ys) is ``cert.ideal``, basis and all."""
    ys = cert.elements[len(cert_x.steps):]
    if sat_x is cert_x.ideal:
        bar = alg.saturate(cert.ideal)
    else:
        bar = alg.saturate(ideal_sum(sat_x, ys)) if ys else sat_x
    dim, e = total_multiplicity(bar)
    if dim != 2:
        raise MathInvariantError(
            f"saturated quotient has dimension {dim}, expected 2"
        )
    return e


def e_table_full(
    alg: BigradedAlgebra,
    verify: bool = False,
    config: RunConfig = RunConfig(),
) -> ETable:
    """Full mixed-multiplicity table from the series route.

    With ``verify`` each top-diagonal cell (i, j) is recomputed through the
    positivity criterion and the multiplicity formula; any mismatch raises.
    The cells share one certified (1,0)-chain x_1, x_2, ..., cell i taking
    its first i elements. Element k (from 0) is drawn from seed
    ``config.seed + 101 * k`` and certified over the defining ideal plus the
    elements before it, and a positive cell's (0,1)-elements are drawn from
    ``config.seed + 101 * i + 1``. The saturations run along the chain:
    sat_0 = ``alg.sat0`` and sat_i = sat(sat_{i-1} + (x_i)), the saturation
    of the defining ideal plus x_1..x_i by sat(B + z) = sat(sat(B) + z).
    """
    table = e_table(alg.polynomial)
    if verify and table.r is not None:
        cert = FilterRegularCertificate(alg.defining)
        sat = alg.sat0
        for i, j in sorted(table.entries):
            _check_top_diagonal(alg.degrees.r, i, j)
            for k in range(len(cert.steps), i):
                _extend(alg, cert, [(1, 0)], config.with_seed(config.seed + 101 * k),
                        "filter-regular element of bidegree {}")
                sat = alg.saturate(ideal_sum(sat, cert.elements[-1:]))
            positive = _witness_dim(alg, sat) == j + 1
            value = e_value_from_prefix(alg, cert, j, config.with_seed(config.seed + 101 * i),
                                        sat) if positive else 0
            if value != table.entries[(i, j)]:
                raise MathInvariantError(
                    f"criterion value {value} at {(i, j)} disagrees with "
                    f"table entry {table.entries[(i, j)]}"
                )
    return table


def sum_check(alg: BigradedAlgebra) -> Optional[bool]:
    """Does the total multiplicity equal the sum of the top diagonal?

    The identity requires both variable ideals to have positive height; the
    conservative sufficient test used here is that the defining ideal is
    saturated with respect to each kind of variables. Returns None when that
    precondition cannot be established.
    """
    if alg.defining.is_unit:
        raise InputError("unit defining ideal")
    if any(saturation(alg.defining, K) is not alg.defining
           for K in (alg.r1_ideal, alg.r2_ideal)):
        return None
    d, e = total_multiplicity(alg.defining)
    table = e_table_full(alg)
    if table.r != d - 2:
        raise MathInvariantError(
            f"top diagonal {table.r} is not dim - 2 = {d - 2} despite heights >= 1"
        )
    return e == sum(table.diagonal())
