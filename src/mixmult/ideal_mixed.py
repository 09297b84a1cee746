"""Mixed multiplicities e_i(I|J) of an m-primary ideal I and an arbitrary
homogeneous ideal J in a standard graded algebra A = k[x]/I_A.

One route answers, for I = m and J generated in one degree d
(``rees_report``): R(m|J) = (+) m^v J^u / m^(v+1) J^u has (u, v)-piece
(J^u)_(ud+v), so it is the Rees algebra A[Jt] with f t^u in bidegree
(u, deg f - ud). One elimination (``rees_presentation``, built once per
setting as ``GradedSetting.presentation``) gives both the analytic spread
l(J), as the Krull dimension of its fiber (``analytic_spread``), and every
e_i, as the top diagonal of its bigraded Hilbert series (``rees_diagonal``),
with no random draw, over any field.

The saturation chain (``mixed_report``, the CLI's ``--verify`` only)
saturates out J, repeatedly adds a certified-generic element of J and
saturates again,

    S_0 = I_A : J^inf,   S_k = (S_{k-1} + (a_k)) : J^inf,

and reads e_i off as the multiplicity of A/S_i whenever the dimension drops
by exactly one per step; a larger drop forces that and all later values to
zero. Each a_k is a random combination of the generators of J, certified
to be a non-zerodivisor modulo S_{k-1} (``is_nzd``: HS(A/(S + (a))) =
(1 - t^d) HS(A/S) exactly when a of degree d is regular modulo S). Regular
is not general enough for the multiplicities: over F 3 a chain has read
e_2 = 1 where the Rees route and a rank count give 2.

Both check the positivity window [ht J - 1, l(J)), with the height
(``height_of``) dim A - dim A/J for a polynomial ring A, and otherwise a
certified chain of generic elements avoiding minimal primes.
"""

from __future__ import annotations

import random
from functools import cached_property
from math import comb
from typing import Optional

from .bigraded import BigradedAlgebra, e_table_full, random_combination
from .config import RunConfig, certified_search
from .errors import GenericityExhausted, InputError, MathInvariantError
from .groebner import (Ideal, _lift, _tagged_ring, eliminate, ideal_power, ideal_product,
                       ideal_sum, in_radical, is_nzd, krull_dim, saturation)
from .hilbert import StandardCount, series_of, total_multiplicity
from .rings import Poly, Ring


class GradedSetting:
    """Ambient data: A = ring/defining, m-primary ideal I (default m), and J.

    All member ideals are carried as their preimages in the ambient polynomial
    ring, with the defining ideal folded in.
    """

    def __init__(self, ring: Ring, defining: Ideal, J: Ideal,
                 primary: Optional[Ideal] = None):  # None means the maximal graded ideal
        self.ring, self.defining, self.J, self.primary = ring, defining, J, primary
        self._heights: dict = {}
        if any(d != (1, 0) for d in ring.bidegrees):
            raise InputError(
                "mixed multiplicities of ideals need a standard single-graded ring"
            )
        for g in defining.gens + J.gens:
            if g.bidegree() is None:
                raise InputError(f"inhomogeneous generator {g}")
        if J.is_zero:
            raise InputError("J is the zero ideal")
        if defining.is_unit:
            raise InputError("the ambient ideal is the unit ideal, so A is the zero ring")
        if primary is not None:
            check = ideal_sum(self.defining, self.primary)
            if not saturation(check, self.maximal_ideal).is_unit:
                raise InputError("the distinguished ideal is not primary to the "
                                 "maximal graded ideal")

    @cached_property
    def maximal_ideal(self) -> Ideal:
        return Ideal(self.ring, self.ring.gens())

    @cached_property
    def s0(self) -> Ideal:
        """Preimage of 0 : J^infinity in A."""
        return saturation(self.defining, self.J)

    @cached_property
    def presentation(self) -> tuple[Ring, Ideal]:
        """``rees_presentation`` of this setting, built once per setting."""
        return rees_presentation(self)

    @cached_property
    def spread(self) -> int:
        """The analytic spread l(J) (``analytic_spread``)."""
        return analytic_spread(self)

    @cached_property
    def generator_degrees(self) -> tuple[int, ...]:
        """The distinct degrees of the generators of J, ascending."""
        return tuple(sorted({g.total_exp_degree() for g in self.J.gens}))

    @property
    def equigenerated(self) -> bool:
        return len(self.generator_degrees) == 1

    def height(self, config: RunConfig) -> int:
        """``height_of`` under ``config``, run once per setting and config."""
        if config not in self._heights:
            self._heights[config] = height_of(self, config)
        return self._heights[config]

    def working_degree(self) -> int:
        """The largest generator degree, where generic elements are drawn."""
        return self.generator_degrees[-1]


def generic_element(setting: GradedSetting, rng: random.Random,
                    config: RunConfig) -> Poly:
    """A random nonzero element of J in the single working degree."""
    return random_combination(setting.J.gens, setting.working_degree(), rng, config)


# ---------------------------------------------------------------------------
# analytic spread and the Rees presentation
# ---------------------------------------------------------------------------


def rees_presentation(setting: GradedSetting) -> tuple[Ring, Ideal]:
    """Presentation ideal of the Rees algebra A[Jt] inside k[x, T], in the
    grading of R(m|J): x in bidegree (0,1), T_l in (1,0).

    Computed by eliminating t from L = I_A + (T_l - t * g_l). The T are
    named ``#T1..#Ts``, like the elimination tags, so no parsed variable
    clashes with them. The result is bihomogeneous when J is generated in
    one degree.

    L is homogeneous when x and t weigh 1 and T_l weighs deg g_l + 1, and
    T_l -> t * g_l gives k[x, T, t]/L = A[t], so its Hilbert series is
    HS_A(z)/(1 - z), known before any basis. The elimination gets both: the
    weights for its sugar, and the leading terms still missing in each
    degree (the monomials there outside the leading terms found so far, by
    ``StandardCount``, less dim A[t]_D), so that it drops the remaining
    pairs of a degree once none is missing. With HS_A = N_A(z)/(1 - z)^n,
    dim A[t]_D is the sum over the terms c z^a of N_A of c * C(D - a + n, n).
    """
    ring = setting.ring
    gens = setting.J.gens
    present_ring = Ring(
        ring.name + "_rees",
        ring.variables + tuple(f"#T{i}" for i in range(1, len(gens) + 1)),
        ((0, 1),) * ring.nvars + ((1, 0),) * len(gens),
        ring.field,
    )
    work = _tagged_ring(present_ring, 1)
    t = work.var(work.nvars - 1)
    lifted = [_lift(g, work) for g in setting.defining.gens]
    lifted += [work.var(ring.nvars + k) - t * _lift(g, work) for k, g in enumerate(gens)]
    weights = [1] * ring.nvars + [g.total_exp_degree() + 1 for g in gens] + [1]
    count, n = StandardCount(weights), ring.nvars

    def missing(lts: list, D: int) -> int:
        series = series_of(setting.defining).numerator  # kept on the handle
        return count(lts, D) - sum(c * comb(D - a + n, n) for (a, _), c in series.items()
                                   if a <= D)

    return present_ring, eliminate(lifted, present_ring, weights, missing)


def analytic_spread(setting: GradedSetting) -> int:
    """Dimension of the special fiber F(J) = A[Jt] / m A[Jt]: the Krull
    dimension of the Rees presentation modulo the x. That ideal is the x
    plus the x-free parts of the presentation's generators, whose basis is
    cheaper to find than one of the presentation plus the x."""
    pring, pres = setting.presentation
    nx = setting.ring.nvars
    fiber = [Poly(pring, {e: c for e, c in g.terms.items() if not any(e[:nx])}, _trusted=True)
             for g in pres.gens]
    return krull_dim(Ideal(pring, [pring.var(i) for i in range(nx)] + fiber))


def order_of(setting: GradedSetting) -> int:
    """Smallest degree of a nonzero form in J, read off the leading terms of
    its reduced basis: in degrevlex each element's leading term has its
    largest degree, so no tail is needed.

    The identity with the first mixed multiplicity holds for a polynomial
    ambient ring; a nonzero defining ideal makes the value merely heuristic.
    """
    return min(map(sum, setting.J.leading_exponents()))


# ---------------------------------------------------------------------------
# the saturation chain
# ---------------------------------------------------------------------------


class ChainStep:
    def __init__(self, element: Poly, ideal: Ideal, dim: int):
        self.element, self.ideal, self.dim = element, ideal, dim


class SatChain:
    def __init__(self, s0: Ideal, dim0: int):
        self.s0, self.dim0 = s0, dim0
        self.steps: list[ChainStep] = []

    def ideals(self) -> list[Ideal]:
        return [self.s0] + [s.ideal for s in self.steps]

    def dims(self) -> list[int]:
        return [self.dim0] + [s.dim for s in self.steps]


def _require_one_degree(setting: GradedSetting) -> None:
    if len(setting.generator_degrees) > 1:
        raise InputError("J must be generated in one degree; its generators have degrees "
                         + ", ".join(str(d) for d in setting.generator_degrees))


def sat_chain(setting: GradedSetting, config: RunConfig = RunConfig()) -> SatChain:
    """Build S_0, ..., S_k with per-step non-zerodivisor certificates, for
    k = l(J) - 1 (0 when l(J) = 0).

    J must be generated in one degree: lifted to a common degree, the
    elements would be generic in the truncation of J there, whose mixed
    multiplicities are not those of J. That is checked before the spread,
    which costs an elimination.
    """
    _require_one_degree(setting)
    length = max(setting.spread - 1, 0)
    s0 = setting.s0
    if s0.is_unit:
        raise InputError("J is nilpotent modulo the defining ideal")
    chain = SatChain(s0, krull_dim(s0))
    rng = random.Random(config.seed)
    prev = s0
    for _ in range(length):
        a, _ = certified_search(lambda: generic_element(setting, rng, config),
                                lambda a: is_nzd(a, prev),
                                config.max_retries, "non-zerodivisor element of J")
        nxt = saturation(ideal_sum(prev, [a]), setting.J)
        chain.steps.append(ChainStep(a, nxt, krull_dim(nxt)))
        prev = nxt
    return chain


def samuel_multiplicity(setting: GradedSetting, quotient: Ideal) -> int:
    """Multiplicity of A/quotient with respect to the distinguished ideal.

    For I = m this is the total multiplicity. Otherwise I must be generated
    in a single degree t, and the value is t^dim times the total multiplicity.
    """
    dim, e = total_multiplicity(quotient)
    if setting.primary is None:
        return e
    degs = {g.total_exp_degree() for g in setting.primary.gens}
    if len(degs) != 1:
        raise InputError(
            "unsupported distinguished ideal: generators must share one degree"
        )
    t = degs.pop()
    return t ** dim * e


class MixedIdealReport:
    """Mixed multiplicities e_0..e_{s(J)-1} with their positivity window."""

    def __init__(self, dim_a: int, spread: int, height: int, e: list[int], rho: int,
                 dims: list[int], seed: Optional[int]):
        self.dim_a = dim_a  # dim A / 0 : J^inf
        self.spread, self.height, self.e, self.rho = spread, height, e, rho
        self.dims = dims  # along the chain; empty on the Rees route
        self.seed = seed  # the chain's; None on the Rees route


def _window(setting: GradedSetting, e: list[int], config: RunConfig,
            short: Exception) -> tuple[int, int]:
    """(rho, height) of e = e_0..e_{l(J)-1}, with the rigidity checks.

    The positivity set must be an initial interval and must reach at least
    height(J) - 1. Over a polynomial ring A, a domain, e_i(m|J) > 0 for
    every i < l(J) (the paper's positivity statement, as ROADMAP item 5
    recalls it), so a shorter interval raises ``short``. The height chain
    runs under ``config``.
    """
    positive = [i for i, v in enumerate(e) if v > 0]
    if not positive:
        raise MathInvariantError("e_0 must be positive")
    rho = max(positive)
    if positive != list(range(rho + 1)):
        raise MathInvariantError(
            f"positivity set {positive} is not an initial interval"
        )
    if setting.defining.is_zero and rho < len(e) - 1:
        raise short
    ht = setting.height(config)
    if not (ht - 1 <= rho < len(e)):
        raise MathInvariantError(
            f"rho = {rho} escapes [height-1, spread) = [{ht - 1}, {len(e)})"
        )
    return rho, ht


def mixed_report(setting: GradedSetting, config: RunConfig = RunConfig()) -> MixedIdealReport:
    """Chain to l(J) - 1, read off the e_i and enforce the rigidity window.

    e_i is the Samuel multiplicity of A/S_i exactly when the dimension has
    dropped by one per step, and zero after a larger drop. Over a
    polynomial ring an e_i that vanishes below l(J) - 1 means the chain's
    elements were not generic enough: exit 3, name the seed.
    """
    chain = sat_chain(setting, config)
    spread = setting.spread
    dims = chain.dims()
    ideals = chain.ideals()
    e: list[int] = []
    for k in range(spread):
        if dims[k] == chain.dim0 - k:
            e.append(samuel_multiplicity(setting, ideals[k]))
        else:
            e.append(0)  # dimension dropped too fast, or zero by rigidity
    rho, ht = _window(setting, e, config, GenericityExhausted(
        "the chain dropped more than one dimension in a step, which the "
        "positivity of e_i(m|J) for i < l(J) over a polynomial ring rules "
        "out; rerun with another --seed"
    ))
    return MixedIdealReport(chain.dim0, spread, ht, e, rho, dims, config.seed)


def rees_report(setting: GradedSetting, config: RunConfig = RunConfig()) -> MixedIdealReport:
    """e_i(m|J) off the top diagonal of R(m|J) (``rees_diagonal``), l(J)
    entries. Nothing is drawn (but a height over a quotient ring, under
    ``config``), so an e_i that vanishes below l(J) - 1 over a polynomial
    ring is a bug."""
    e, dim_a = rees_diagonal(setting, None)
    spread = len(e)
    rho, ht = _window(setting, e, config, MathInvariantError(
        f"e = {e} vanishes below l(J) - 1 = {spread - 1} over a polynomial ring"
    ))
    return MixedIdealReport(dim_a, spread, ht, e, rho, [], None)


# ---------------------------------------------------------------------------
# height: Krull dimension, or certified generic chains
# ---------------------------------------------------------------------------


def _minimal_primes_avoid(B: Ideal, C: Ideal) -> bool:
    """True when no minimal prime of B contains C.

    Works because B : C^inf drops exactly the components whose primes contain
    C: it is contained in the radical of B iff every minimal prime survives.
    """
    sat = saturation(B, C)
    return sat is B or all(in_radical(g, B) for g in sat.groebner())


def height_of(setting: GradedSetting, config: RunConfig = RunConfig()) -> int:
    """Height of J in A, without primary decomposition. Two routes:

    - A a polynomial ring: ht J = dim A - dim A/J, because every prime P of
      the affine domain A has ht P + dim A/P = dim A. One degrevlex basis,
      deterministic, and no random draw.
    - any other A, where the two can differ (say A not equidimensional):
      the certified chain of ``_height_by_chain``, run under ``config``.
    """
    total = ideal_sum(setting.defining, setting.J)
    if total.is_unit:
        raise InputError("J is the unit ideal modulo the defining ideal")
    if setting.defining.is_zero:
        return setting.ring.nvars - krull_dim(total)
    return _height_by_chain(setting, config)


def _height_by_chain(setting: GradedSetting, config: RunConfig) -> int:
    """Extends a chain of generic elements of J while every minimal prime of
    the partial ideal avoids J; each accepted element is certified to avoid
    all minimal primes of the previous step. The count at the first failure
    is the height, by the generalized principal ideal theorem plus the
    avoidance certificates."""
    rng = random.Random(config.seed ^ 0x9E3779B9)
    B = setting.defining
    k = 0
    cap = setting.ring.nvars + 1
    while k <= cap:
        if not _minimal_primes_avoid(B, setting.J):
            return k
        a, _ = certified_search(lambda: generic_element(setting, rng, config),
                                lambda a: _minimal_primes_avoid(B, Ideal(setting.ring, [a])),
                                config.max_retries,
                                "element of J avoiding the minimal primes")
        B = ideal_sum(B, [a])
        k += 1
    raise MathInvariantError("height chain exceeded the ambient dimension")


# ---------------------------------------------------------------------------
# the Rees diagonal, Rees multiplicity and diagonal degree
# ---------------------------------------------------------------------------


def rees_and_diagonal(
    setting: GradedSetting, report: MixedIdealReport
) -> tuple[int, Optional[int]]:
    """Multiplicity of the Rees algebra and, for an equigenerated ideal in a
    polynomial ring, the degree of the diagonal embedding."""
    rees = sum(report.e)
    diag = None
    if setting.defining.is_zero and setting.equigenerated:
        n = setting.ring.nvars - 1
        diag = sum(comb(n, i) * v for i, v in enumerate(report.e))
    return rees, diag


def rees_diagonal(setting: GradedSetting,
                  length: Optional[int]) -> tuple[list[int], int]:
    """(e_0(m|J), ..., e_(length-1)(m|J)), and dim A/(0 : J^inf), off the
    top diagonal of the bigraded Hilbert polynomial of R(m|J), with no
    random draw. ``length`` None means l(J).

    Needs I = m and J generated in one degree c (refused before the
    presentation is built): with T in bidegree (1,0) and x in (0,1),
    m^v J^u / m^(v+1) J^u = (J^u)_(uc+v), so R(m|J) is A[Jt] in the grading
    ``rees_presentation`` gives it, for any standard graded A. Its Hilbert
    polynomial has degree dim A/(0 : J^inf) - 1, and vanishes when J is
    nilpotent. The diagonal is padded with zeros or cut to ``length``
    entries; e_i = 0 for i >= l(J), so a nonzero entry cut off is a bug.
    """
    _require_one_degree(setting)
    if setting.primary is not None and not setting.primary.same_ideal(setting.maximal_ideal):
        raise InputError("the Rees route needs the maximal ideal as distinguished ideal")
    pring, pres = setting.presentation
    if any(g.bidegree() is None for g in pres.gens):
        raise MathInvariantError("Rees presentation failed to be bihomogeneous")
    table = e_table_full(BigradedAlgebra(pring, pres))
    if table.r is None:
        raise InputError("J is nilpotent modulo the defining ideal")
    if length is None:
        length = setting.spread
    diagonal = table.diagonal()
    if any(diagonal[length:]):
        raise MathInvariantError(f"nonzero e_i at i >= l(J), cut at {length}: {diagonal}")
    return (diagonal + [0] * length)[:length], table.r + 1


# ---------------------------------------------------------------------------
# reduction fixtures
# ---------------------------------------------------------------------------


# Largest n at which ``is_reduction_of`` tests J^(n+1) = J' J^n.
_REDUCTION_NUMBER_CAP = 10


def is_reduction_of(J: Ideal, Jp: Ideal) -> int:
    """Least n <= _REDUCTION_NUMBER_CAP with J^(n+1) = Jp * J^n; raises when
    none is found."""
    if not J.contains_ideal(Jp):
        raise InputError("claimed reduction is not contained in the ideal")
    for n in range(_REDUCTION_NUMBER_CAP + 1):
        lhs = ideal_power(J, n + 1)
        rhs = ideal_product(Jp, ideal_power(J, n))
        if lhs.same_ideal(rhs):
            return n
    raise InputError("reduction identity not confirmed for any n <= "
                     f"{_REDUCTION_NUMBER_CAP}")


def reduction_invariance_check(
    setting: GradedSetting,
    other: GradedSetting,
    config: RunConfig = RunConfig(),
) -> bool:
    """Verify J' is a reduction of J and compare the full e-vectors."""
    if setting.ring != other.ring or not setting.defining.same_ideal(other.defining):
        raise InputError("settings must share ambient data")
    is_reduction_of(setting.J, other.J)
    return rees_report(setting, config).e == rees_report(other, config).e
