"""Mixed multiplicities e_i(I|J) of an m-primary ideal I and an arbitrary
homogeneous ideal J in a standard graded algebra A = k[x]/I_A.

The chain method: saturate out J, repeatedly add a certified-generic element
of J and saturate again,

    S_0 = I_A : J^inf,   S_k = (S_{k-1} + (a_k)) : J^inf,

and read e_i off as the multiplicity of A/S_i whenever the dimension drops by
exactly one per step; a larger drop forces that and all later values to zero.
Each a_k is a random combination of the generators of J, which must share
one degree, and is certified to be a non-zerodivisor modulo S_{k-1} before
being accepted.

The chain and its positivity window [ht J - 1, l(J)) rest on three
certificates, none of which needs an elimination:

- non-zerodivisor (``is_nzd``): HS(A/(S + (a))) = (1 - t^d) HS(A/S) holds
  exactly when a of degree d is regular modulo S;
- analytic spread l(J) (``analytic_spread``): for J equigenerated in a
  polynomial ring, a Jacobian of rank min(s, n) at one point, which bounds
  the transcendence degree of the generators from below over a perfect
  field; otherwise the Rees presentation;
- height (``height_of``): dim A - dim A/J for a polynomial ring A;
  otherwise a certified chain of generic elements avoiding minimal primes.

Closed-form cross-checks (order of J, products of least form degrees,
equigenerated powers) and an independent bigraded route through the Rees
presentation validate the chain values on suitable instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .bigraded import BigradedAlgebra, e_table_full, random_combination
from .config import RunConfig, certified_search
from .errors import InputError, MathInvariantError
from .fields import DEFAULT_PRIME
from .groebner import (Ideal, _lift, _tagged_ring, eliminate, ideal_power, ideal_product,
                       ideal_sum, in_radical, is_nzd, krull_dim, saturation)
from .hilbert import ETable, total_multiplicity
from .rings import Poly, Ring


@dataclass
class GradedSetting:
    """Ambient data: A = ring/defining, m-primary ideal I (default m), and J.

    All member ideals are carried as their preimages in the ambient polynomial
    ring, with the defining ideal folded in.
    """

    ring: Ring
    defining: Ideal
    J: Ideal
    primary: Optional[Ideal] = None  # None means the maximal graded ideal

    def __post_init__(self):
        if any(d != (1, 0) for d in self.ring.bidegrees):
            raise InputError(
                "mixed multiplicities of ideals need a standard single-graded ring"
            )
        for g in self.defining.gens + self.J.gens:
            if g.bidegree() is None:
                raise InputError(f"inhomogeneous generator {g}")
        if self.J.is_zero:
            raise InputError("J is the zero ideal")
        if self.defining.is_unit:
            raise InputError("the ambient ideal is the unit ideal, so A is the zero ring")
        if self.primary is not None:
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

# Seed of the Jacobian's evaluation point: fixed, and apart from the chain's
# and the height's generators, so the spread never moves their draws.
_JACOBIAN_SEED = 0x7AC0B1


def rees_presentation(setting: GradedSetting) -> tuple[Ring, Ideal]:
    """Presentation ideal of the Rees algebra A[Jt] inside k[x, T], in the
    grading of R(m|J): x in bidegree (0,1), T_l in (1,0).

    Computed by eliminating t from I_A + (T_l - t * g_l). The T are named
    ``#T1..#Ts``, like the elimination tags, so no parsed variable clashes
    with them. The result is bihomogeneous when J is generated in one degree.
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
    return present_ring, eliminate(lifted, present_ring)


def _jacobian_rank(gens: tuple[Poly, ...], ring: Ring) -> int:
    """Rank of the Jacobian matrix of ``gens`` at one point of k^n drawn
    from a private generator with a fixed seed, by Gaussian elimination."""
    field = ring.field
    rng = random.Random(_JACOBIAN_SEED)
    span = field.p or DEFAULT_PRIME
    top = max(g.total_exp_degree() for g in gens)
    powers = []  # powers[v][k] = point_v ** k
    for _ in range(ring.nvars):
        x = field.coerce(rng.randrange(span))
        row = [field.one]
        for _ in range(top):
            row.append(field.mul(row[-1], x))
        powers.append(row)
    rows = []
    for g in gens:
        row = [field.zero] * ring.nvars
        for e, c in g.terms.items():
            for v, k in enumerate(e):
                if k:
                    term = field.mul(c, field.coerce(k))
                    for w, kw in enumerate(e):
                        term = field.mul(term, powers[w][kw - (w == v)])
                    row[v] = field.add(row[v], term)
        rows.append(row)
    rank = 0
    for col in range(ring.nvars):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                c = field.mul(rows[i][col], inv)
                rows[i] = [field.sub(a, field.mul(c, b)) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def analytic_spread(setting: GradedSetting) -> int:
    """Dimension of the special fiber F(J) = A[Jt] / m A[Jt].

    Two routes:

    - A a polynomial ring and J generated by s nonzero forms g of one
      degree: then F(J) is k[g_1..g_s], so the spread is the transcendence
      degree of the g over k, at most min(s, n). Over a perfect field (Q and
      every F_p) the rank of the Jacobian matrix over k(x) is at most that
      degree (k(g) is separably generated, so the dg_i span at most that
      many dimensions), and the rank at a point is at most the rank over
      k(x). A rank of min(s, n) at one point therefore certifies the spread
      with no Groebner basis.
    - otherwise, including a lower rank (a dependent or p-th-power J, or an
      unlucky point): the Krull dimension of the fiber of the Rees
      presentation, one block-order elimination.
    """
    gens = setting.J.gens
    bound = min(len(gens), setting.ring.nvars)
    if (setting.defining.is_zero and setting.equigenerated
            and _jacobian_rank(gens, setting.ring) == bound):
        return bound
    return _spread_by_rees(setting)


def _spread_by_rees(setting: GradedSetting) -> int:
    """Krull dimension of the fiber of the Rees presentation modulo m."""
    pring, pres = rees_presentation(setting)
    return krull_dim(ideal_sum(pres, [pring.var(i) for i in range(setting.ring.nvars)]))


def order_of(setting: GradedSetting) -> int:
    """Smallest degree of a nonzero form in J, read off the reduced basis.

    The identity with the first mixed multiplicity holds for a polynomial
    ambient ring; a nonzero defining ideal makes the value merely heuristic.
    """
    return min(g.total_exp_degree() for g in setting.J.groebner())


# ---------------------------------------------------------------------------
# the saturation chain
# ---------------------------------------------------------------------------


@dataclass
class ChainStep:
    element: Poly
    ideal: Ideal
    dim: int


@dataclass
class SatChain:
    setting: GradedSetting
    s0: Ideal
    dim0: int
    steps: list[ChainStep] = field(default_factory=list)
    config: RunConfig = RunConfig()

    def ideals(self) -> list[Ideal]:
        return [self.s0] + [s.ideal for s in self.steps]

    def dims(self) -> list[int]:
        return [self.dim0] + [s.dim for s in self.steps]


def sat_chain(setting: GradedSetting, upto: Optional[int] = None,
              config: RunConfig = RunConfig()) -> SatChain:
    """Build S_0, ..., S_upto with per-step non-zerodivisor certificates;
    ``upto`` defaults to l(J) - 1 (0 when l(J) = 0).

    J must be generated in one degree: lifted to a common degree, the
    elements would be generic in the truncation of J there, whose mixed
    multiplicities are not those of J. That is checked before the spread,
    which may cost an elimination.
    """
    if len(setting.generator_degrees) > 1:
        raise InputError("the chain needs J generated in one degree; its generators "
                         "have degrees "
                         + ", ".join(str(d) for d in setting.generator_degrees))
    spread = setting.spread
    if upto is None:
        upto = max(spread - 1, 0)
    if upto > spread:
        raise InputError(f"chain length {upto} exceeds the analytic spread {spread}")
    s0 = setting.s0
    if s0.is_unit:
        raise InputError("J is nilpotent modulo the defining ideal")
    chain = SatChain(setting, s0, krull_dim(s0), config=config)
    rng = random.Random(config.seed)
    prev = s0
    for _ in range(upto):
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


@dataclass
class MixedIdealReport:
    """Mixed multiplicities e_0..e_{s(J)-1} with their positivity window."""

    dim_a: int  # dim A / 0 : J^inf
    spread: int
    height: int
    e: list[int]
    rho: int
    dims: list[int]
    seed: int


def e_i_values(setting: GradedSetting, chain: SatChain) -> MixedIdealReport:
    """Extract the e_i from a chain and enforce the rigidity window.

    e_i is the Samuel multiplicity of A/S_i exactly when the dimension has
    dropped by one per step; the positivity set must be an initial interval
    and must reach at least height(J) - 1. The height chain runs under the
    chain's configuration.
    """
    spread = setting.spread
    dims = chain.dims()
    ideals = chain.ideals()
    if len(dims) < spread and dims[-1] == chain.dim0 - (len(dims) - 1):
        raise InputError(
            "chain too short: no dimension drop has occurred yet, so the "
            f"values past step {len(dims) - 1} are undetermined"
        )
    e: list[int] = []
    for k in range(spread):
        if k < len(dims) and dims[k] == chain.dim0 - k:
            e.append(samuel_multiplicity(setting, ideals[k]))
        else:
            e.append(0)  # dimension dropped too fast, or zero by rigidity
    positive = [i for i, v in enumerate(e) if v > 0]
    if not positive:
        raise MathInvariantError("e_0 must be positive")
    rho = max(positive)
    if positive != list(range(rho + 1)):
        raise MathInvariantError(
            f"positivity set {positive} is not an initial interval"
        )
    # dims beyond the first failure must keep failing: implied by the interval
    # check above whenever the chain was computed far enough
    ht = height_of(setting, chain.config)
    if not (ht - 1 <= rho < spread):
        raise MathInvariantError(
            f"rho = {rho} escapes [height-1, spread) = [{ht - 1}, {spread})"
        )
    return MixedIdealReport(chain.dim0, spread, ht, e, rho, dims, chain.config.seed)


def mixed_report(setting: GradedSetting, config: RunConfig = RunConfig()) -> MixedIdealReport:
    """Chain all the way to s(J) - 1 and extract the report."""
    return e_i_values(setting, sat_chain(setting, config=config))


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
# closed-form oracles
# ---------------------------------------------------------------------------


@dataclass
class InstanceLabels:
    """Hypotheses that are instance knowledge, not computed: local structure
    at the top-dimensional primes and chain conditions."""

    generically_complete_intersection: bool = False
    first_chain_condition: bool = False
    has_coprime_least_forms: bool = False


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


# ---------------------------------------------------------------------------
# Rees multiplicity, diagonal degree, bigraded cross-check
# ---------------------------------------------------------------------------


def rees_and_diagonal(
    setting: GradedSetting, report: MixedIdealReport
) -> tuple[int, Optional[int]]:
    """Multiplicity of the Rees algebra and, for an equigenerated ideal in a
    polynomial ring, the degree of the diagonal embedding."""
    rees = sum(report.e)
    diag = None
    if setting.defining.is_zero and setting.equigenerated:
        import math

        n = setting.ring.nvars - 1
        diag = sum(math.comb(n, i) * v for i, v in enumerate(report.e))
    return rees, diag


def rees_bigraded_crosscheck(setting: GradedSetting) -> ETable:
    """e_i(m|J) with no random draw: the bigraded pipeline on the Rees
    presentation; the top diagonal is e_0, e_1, ... (zero from l(J) on).

    Needs I = m and J generated in one degree c: with T in bidegree (1,0) and
    x in (0,1), m^v J^u / m^(v+1) J^u = (J^u)_(uc+v), so R(m|J) is A[Jt] in
    the grading ``rees_presentation`` gives it, for any standard graded A.
    """
    if setting.primary is not None and not setting.primary.same_ideal(setting.maximal_ideal):
        raise InputError("cross-check needs the maximal ideal as distinguished ideal")
    if not setting.equigenerated:
        raise InputError("cross-check needs an equigenerated ideal")
    pring, pres = rees_presentation(setting)
    if any(g.bidegree() is None for g in pres.gens):
        raise MathInvariantError("Rees presentation failed to be bihomogeneous")
    return e_table_full(BigradedAlgebra(pring, pres))


# ---------------------------------------------------------------------------
# reduction fixtures
# ---------------------------------------------------------------------------


def is_reduction_of(J: Ideal, Jp: Ideal, bound: int = 10) -> int:
    """Least n <= bound with J^(n+1) = Jp * J^n; raises when none is found."""
    if not J.contains_ideal(Jp):
        raise InputError("claimed reduction is not contained in the ideal")
    for n in range(bound + 1):
        lhs = ideal_power(J, n + 1)
        rhs = ideal_product(Jp, ideal_power(J, n))
        if lhs.same_ideal(rhs):
            return n
    raise InputError(f"reduction identity not confirmed for any n <= {bound}")


def reduction_invariance_check(
    setting: GradedSetting,
    other: GradedSetting,
    config: RunConfig = RunConfig(),
    bound: int = 10,
) -> bool:
    """Verify J' is a reduction of J and compare the full e-vectors."""
    if setting.ring != other.ring or not setting.defining.same_ideal(other.defining):
        raise InputError("settings must share ambient data")
    is_reduction_of(setting.J, other.J, bound)
    r1 = mixed_report(setting, config)
    r2 = mixed_report(other, config)
    return r1.e == r2.e
