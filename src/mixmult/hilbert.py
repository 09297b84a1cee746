"""Bivariate Hilbert series, Hilbert polynomials, and multiplicity extraction.

The series of ring/I is computed from the leading-term monomial ideal M, whose
minimal generators are the leading terms of the reduced basis. Its numerator
over prod_v (1 - t^deg v) comes from a recursion on minimal generators:

- N(0) = 1 and N((1)) = 0.
- Product rule: when the supports of the generators fall into two or more
  connected components in the variable graph, ring/M is a tensor product and
  N(M) is the product of the components' numerators (Bigatti, "Computation
  of Hilbert-Poincare series", J. Pure Appl. Algebra 119, 1997). One
  bitmask pass finds the generators that share no variable with another;
  each gives the factor 1 - t^deg m, and only the rest are merged into
  components.
- Pivot: otherwise split on the variable x that most generators contain,

      N(M) = N(M + (x)) + t^deg(x) * N(M : x).

  The minimal generators of both sides are updated in place, with no
  quadratic minimalisation. x replaces exactly the generators it divides,
  so M + (x) is x next to the generators free of x, on disjoint variables,
  and N(M + (x)) = (1 - t^deg x) N(free part). The generators g/x of M : x
  stay minimal among themselves, and only a generator free of x can be
  divided by one of them.

Each generator is one int (``_Layout``) for a grading by k weight vectors:
n exponent fields, field v holding x_v times the sum of its weights, and k
fields for its degrees, each field with a guard bit on top, wide enough for
the lcm of all generators. Then M : x is one subtraction per generator, h
divides e when e - h sets no guard bit, the support of m is the guard bits
of m + (all ones below each exponent guard), and summing supports counts
the generators on each variable. Inside the recursion a numerator is a dict
keyed by the k degree fields as one int (a << width | b for t1^a t2^b under
a bigrading), read off the top of a generator; the lcm bounds every such
degree, so keys add without carries. Each node is memoised on its layout
and generator set, and ``series_of`` keeps the series on the ideal handle.
Hilbert data depends only on the ideal, so any fixed monomial order works;
degrevlex is used throughout.

``StandardCount`` serves the Hilbert-driven pair drop of ``groebner``: it
counts the monomials of one weighted degree outside the leading terms of a
basis still being built, with one numerator, of a colon, per leading term,
on the layout of its one weight vector.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Optional, Sequence

from .errors import InputError, MathInvariantError
from .groebner import Ideal, _divisible, _minimal, ideal_sum, krull_dim
from .rings import Exponent, Poly, Ring, monomials_of_bidegree

Numerator = dict  # (a, b) -> int, over prod_v (1 - t1^d1 t2^d2)

_numerator_memo: dict = {}


class _Layout:
    """Monomials of n variables, graded by k weight vectors, as ints of n + k
    fields of ``width`` bits, each with a guard bit on top. Field v holds x_v
    times the sum of its weights, and the k top fields its degrees, the first
    grading highest, so ``m >> top`` is the numerator key of t^deg m. A
    quotient by x_v is one subtraction of ``units[v]``."""

    __slots__ = ("key", "width", "units", "top", "ones", "guard")

    def __init__(self, weights: tuple[tuple[int, ...], ...], width: int):
        n = len(weights[0])
        self.key = f"{width}:{weights}"  # a str keeps its hash
        self.width = width
        self.top = n * width
        self.units = [sum(ws) << v * width | sum(
            x << f * width for f, x in enumerate(reversed(ws))) << self.top
            for v, ws in enumerate(zip(*weights))]
        half = 1 << width - 1
        self.ones = sum(half - 1 << v * width for v in range(n))
        self.guard = sum(half << f * width for f in range(n + len(weights)))


def _numerator(lay: _Layout, gens: frozenset, memo: dict) -> dict:
    """Series numerator, keyed by ``lay``'s degree fields, of the monomial
    ideal with packed minimal generators ``gens``, memoised in ``memo``."""
    key = (lay.key, gens)
    out = memo.get(key)
    if out is not None:
        return out
    if not gens or 0 in gens:
        memo[key] = out = {} if gens else {0: 1}
        return out
    top, guard = lay.top, lay.guard
    # the guard bits of a generator's nonzero exponents: its support
    masks = [(g + lay.ones) & guard for g in gens]
    covered = shared = 0  # the variables of some generator, of two
    for mask in masks:
        shared |= covered & mask
        covered |= mask
    lone = []  # the degrees of the generators alone on their variables
    parts: list = []  # [support, generators], supports pairwise disjoint
    for g, mask in zip(gens, masks):
        if not mask & shared:
            lone.append(g >> top)
            continue
        joined = [mask, [g]]
        rest = [joined]
        for part in parts:
            if part[0] & mask:
                joined[0] |= part[0]
                joined[1] += part[1]
            else:
                rest.append(part)
        parts = rest
    if lone or len(parts) > 1:
        # generators on disjoint variables: the quotient is a tensor product,
        # and a lone generator m gives the factor 1 - t^deg m
        out = {0: 1}
        for d in lone:
            for k, c in list(out.items()):
                out[k + d] = out.get(k + d, 0) - c
        for _, part in parts:
            prod: dict = {}
            for k2, c2 in _numerator(lay, frozenset(part), memo).items():
                for k, c in out.items():
                    prod[k + k2] = prod.get(k + k2, 0) + c * c2
            out = prod
        memo[key] = out = {k: c for k, c in out.items() if c}
        return out
    # pivot: the variable that most generators contain, counted field by field
    w = lay.width
    total = sum(masks) >> w - 1
    counts = [total >> s & (1 << w) - 1 for s in range(0, top, w)]
    v = counts.index(max(counts))
    bit, unit, field = 1 << v * w + w - 1, lay.units[v], (1 << w) - 1 << v * w
    # M + (x_v) is x_v next to the generators free of it
    free = [g for g, mask in zip(gens, masks) if not mask & bit]
    head = _numerator(lay, frozenset(free), memo)
    # M : x_v: the shifted generators stay minimal among themselves, and only
    # a generator free of x_v can be divided by one of them, namely by one
    # that no longer contains x_v; h divides e when e - h trips no guard bit
    shifted = [g - unit for g, mask in zip(gens, masks) if mask & bit]
    freed = [h for h in shifted if not h & field]
    tail = _numerator(lay, frozenset(shifted + [
        e for e in free if all((e - h) & guard for h in freed)]), memo)
    # N(M) = (1 - t^d) N(free part) + t^d N(M : x_v), d = deg x_v
    d = unit >> top
    out = dict(head)
    for k, c in tail.items():
        out[k + d] = out.get(k + d, 0) + c
    for k, c in head.items():
        out[k + d] = out.get(k + d, 0) - c
    memo[key] = out = {k: c for k, c in out.items() if c}
    return out


class StandardCount:
    """``count(lts, D)``: how many monomials of weighted degree D, x_v
    weighing ``weights[v]``, lie outside the monomial ideal M of the
    exponent tuples ``lts``.

    Incremental for a list that grows at the end, as a Buchberger loop's
    leading terms do. Adding m to M adds m times the monomials outside
    M : m, so N(M + (m)) = N(M) - t^deg m N(M : m): one ``_numerator`` per
    new leading term, on the ``_Layout`` of the one weight vector, keyed by
    weighted degree. Field v holds the degree of the power of x_v, so g : m
    is a saturating subtraction of the exponent fields and its degree, the
    sum of those fields, one product. A minimal generator of M prime to m
    is its own colon and divides no other colon, so only the others are
    compared. A count is the numerator against the monomial counts of the
    ring. A list that does not extend the last one starts the count afresh.
    """

    def __init__(self, weights: Sequence[int]):
        self.weights = tuple(weights)
        self.ambient = [1]  # monomials of the ring by weighted degree
        self.memo: dict = {}  # of ``_numerator``, keyed by layout too
        self._restart()

    def _restart(self) -> None:
        self.seen: list[Exponent] = []
        self.num: dict = {0: 1}  # N(M) by weighted degree
        self.lay: Optional[_Layout] = None  # packed when the first term comes

    def _relayout(self, width: int) -> None:
        self.lay = lay = _Layout((self.weights,), width)
        self.gens = _minimal([sum(map(mul, e, lay.units)) for e in self.seen], lay.guard)
        self.spread = sum(1 << v * width for v in range(len(self.weights)))
        self.high = lay.ones + self.spread  # the guard bits of the exponent fields

    def __call__(self, lts: Sequence[Exponent], D: int) -> int:
        if list(lts[:len(self.seen)]) != self.seen:
            self._restart()
        seen = self.seen
        for m in lts[len(seen):]:
            self._add(m)
            seen.append(m)
        ambient = self.ambient
        if len(ambient) <= D:  # grown to twice the degree asked for
            ambient[:] = [1] + [0] * 2 * D
            for w in self.weights:
                for k in range(w, 2 * D + 1):
                    ambient[k] += ambient[k - w]
        return sum(c * ambient[D - k] for k, c in self.num.items() if k <= D)

    def _add(self, m: Exponent) -> None:
        d = sum(map(mul, m, self.weights))
        width = self.lay.width if self.lay else 8
        while d >> width - 1:
            width *= 2
        if not self.lay or width != self.lay.width:
            self._relayout(width)
        lay, gens, high = self.lay, self.gens, self.high
        guard, w, low, top = lay.guard, lay.width, lay.ones, lay.top
        packed = sum(map(mul, m, lay.units))
        me, support = packed & low, (packed + low) & high
        sumshift, field = top - w, (1 << w) - 1
        # only a generator that shares a variable with m can divide it or
        # be divided by it
        moved, kept, multiples = set(), [], []
        for g in gens:
            if (g + low) & support:
                if not (g - packed) & guard:
                    multiples.append(g)
                # g : m: subtract with every exponent guard set, keep the
                # fields whose guard survived; the degree is their sum
                t = (g & low | high) - me
                keep = t & high
                c = t & keep - (keep >> w - 1)
                moved.add(c | (c * self.spread >> sumshift & field) << top)
            else:
                kept.append(g)
        if 0 in moved:
            return  # m lies in M already
        divisors = _minimal(moved, guard)
        kept = divisors + [g for g in kept if not _divisible(g, divisors, guard)]
        if len(kept) >> w:  # a pivot count of ``_numerator`` would carry
            self._relayout(2 * w)
            return self._add(m)
        num = self.num
        for k, c in _numerator(lay, frozenset(kept), self.memo).items():
            num[k + d] = num.get(k + d, 0) - c
        if multiples:
            gens = [g for g in gens if g not in multiples]
        self.gens = gens + [packed]


class HilbertSeries2:
    """Numerator over prod_v (1 - t1^d1(v) t2^d2(v)) for the ambient ring."""

    def __init__(self, ring: Ring, numerator: Numerator):
        self.ring, self.numerator = ring, numerator

    @property
    def n1(self) -> int:
        return sum(1 for d in self.ring.bidegrees if d == (1, 0))

    @property
    def n2(self) -> int:
        return sum(1 for d in self.ring.bidegrees if d == (0, 1))

    def coefficient(self, u: int, v: int) -> int:
        """Exact coefficient of t1^u t2^v, for standard bigraded rings."""
        if not self.ring.is_standard_bigraded:
            raise InputError("series coefficients need a standard bigraded ring")
        n1, n2 = self.n1, self.n2
        total = 0
        for (a, b), c in self.numerator.items():
            total += c * _count(u - a, n1) * _count(v - b, n2)
        return total


def _count(w: int, k: int) -> int:
    """Monomials of degree w in k variables; the coefficient of t^w in (1-t)^-k."""
    if w < 0:
        return 0
    if k == 0:
        return 1 if w == 0 else 0
    return math.comb(w + k - 1, k - 1)


def series_of(I: Ideal) -> HilbertSeries2:
    """Bigraded Hilbert series of ring/I for a (bi)homogeneous ideal, kept
    on the handle."""
    if I._series is None:
        for g in I.gens:
            if g.bidegree() is None:
                raise InputError(f"inhomogeneous generator: {g}")
        # the leading terms of a reduced basis are the minimal generators;
        # their lcm bounds every exponent field (x_v scaled by a + b) and
        # every bidegree the recursion meets, and a pivot count is at most
        # their number
        lead = I.leading_exponents()
        lcm = [max(col) for col in zip(*lead)]
        need = max([*map(mul, lcm, map(sum, I.ring.bidegrees)),
                    *I.ring.monomial_bidegree(lcm)])
        width = 8
        while need >> width - 1 or len(lead) >> width:
            width *= 2
        lay = _Layout(I.ring.degree_columns, width)
        num = _numerator(lay, frozenset(sum(map(mul, e, lay.units)) for e in lead),
                         _numerator_memo)
        low = (1 << width) - 1
        I._series = HilbertSeries2(I.ring, {(k >> width, k & low): c for k, c in num.items()})
    return I._series


def colon_numerator(I: Ideal, f: Poly) -> Numerator:
    """Series numerator of ((I : f)/I)(-d), for a form f of bidegree d.

    Multiplication by f gives the exact sequence

        0 -> ((I : f)/I)(-d) -> (R/I)(-d) --f--> R/I -> R/(I + (f)) -> 0,

    so HS(R/(I + (f))) = (1 - t^d) HS(R/I) + t^d HS((I : f)/I), and the
    numerator is N(I + (f)) - (1 - t^d) N(I), with no colon computed. Both
    f and I must be bihomogeneous; either one inhomogeneous raises
    ``InputError`` (for I, from ``series_of``).
    """
    d = f.bidegree()
    if d is None:
        raise InputError("colon series expects a homogeneous element")
    base = series_of(I).numerator
    out = dict(series_of(ideal_sum(I, [f])).numerator)
    for (a, b), c in base.items():
        out[a, b] = out.get((a, b), 0) - c
        out[a + d[0], b + d[1]] = out.get((a + d[0], b + d[1]), 0) + c
    return {k: c for k, c in out.items() if c}


def hilbert_function(I: Ideal, u: int, v: int) -> int:
    """dim of the (u, v)-piece of ring/I, counted monomial by monomial.

    This is the independent brute-force oracle for the series machinery.
    Standard monomials only give graded dimensions for homogeneous ideals.
    """
    for g in I.gens:
        if g.bidegree() is None:
            raise InputError(f"inhomogeneous generator: {g}")
    lead = I.leading_exponents()
    count = 0
    for exp in monomials_of_bidegree(I.ring, u, v):
        if not any(all(l <= e for l, e in zip(lt, exp)) for lt in lead):
            count += 1
    return count


def gbinom(z: int, m: int) -> int:
    """Generalized binomial coefficient binom(z, m) for integer z, m >= 0."""
    if m < 0:
        return 0
    num = 1
    for i in range(m):
        num *= z - i
    value = num // math.factorial(m)
    if value * math.factorial(m) != num:
        raise MathInvariantError("generalized binomial was not integral")
    return value


class HilbertPoly2:
    """P(u, v) in the basis binom(u, i) * binom(v, j), with stability bounds.

    ``total_degree`` is None exactly when P is identically zero. For all
    u >= u_star and v >= v_star the polynomial agrees with the Hilbert
    function.
    """

    def __init__(self, coeffs: dict, total_degree: Optional[int], deg_u: int, deg_v: int,
                 u_star: int, v_star: int):
        self.coeffs = coeffs  # (i, j) -> int, zero entries dropped
        self.total_degree = total_degree
        self.deg_u, self.deg_v = deg_u, deg_v  # -1 when P == 0
        self.u_star, self.v_star = u_star, v_star

    def __call__(self, u: int, v: int) -> int:
        return sum(
            c * gbinom(u, i) * gbinom(v, j) for (i, j), c in self.coeffs.items()
        )

    @property
    def is_zero(self) -> bool:
        return self.total_degree is None


def polynomial_of(S: HilbertSeries2) -> HilbertPoly2:
    """The polynomial eventually equal to the Hilbert function of the series."""
    if not S.ring.is_standard_bigraded:
        raise InputError("Hilbert polynomials require a standard bigraded ring")
    n1, n2 = S.n1, S.n2
    num = S.numerator
    if not num:
        return HilbertPoly2({}, None, -1, -1, 0, 0)
    u_star = max(a for a, _ in num)
    v_star = max(b for _, b in num)
    if n1 == 0 or n2 == 0:
        # a missing (1-t)-factor makes the function eventually zero; it dies
        # only past the numerator support in that variable
        return HilbertPoly2({}, None, -1, -1,
                            u_star + (1 if n1 == 0 else 0),
                            v_star + (1 if n2 == 0 else 0))
    # a_ij = sum of c * binom(n1-1-a, n1-1-i) * binom(n2-1-b, n2-1-j) over
    # the terms c t1^a t2^b: one binomial table per kind of variable,
    # contracted first over b (for each a), then over a
    vs = {b: [gbinom(n2 - 1 - b, n2 - 1 - j) for j in range(n2)] for b in {b for _, b in num}}
    rows: dict = {}
    for (a, b), c in num.items():
        row = rows.setdefault(a, [0] * n2)
        for j, x in enumerate(vs[b]):
            row[j] += c * x
    us = {a: [gbinom(n1 - 1 - a, n1 - 1 - i) for i in range(n1)] for a in rows}
    coeffs: dict = {}
    for i in range(n1):
        for j in range(n2):
            a_ij = sum(us[a][i] * row[j] for a, row in rows.items())
            if a_ij:
                coeffs[(i, j)] = a_ij
    if not coeffs:
        return HilbertPoly2({}, None, -1, -1, u_star, v_star)
    total = max(i + j for i, j in coeffs)
    return HilbertPoly2(
        coeffs,
        total,
        max(i for i, _ in coeffs),
        max(j for _, j in coeffs),
        u_star,
        v_star,
    )


class ETable:
    """Top-diagonal coefficients of the Hilbert polynomial.

    ``entries`` holds every cell (i, r - i) for i = 0..r; all are nonnegative
    integers. ``r`` is None when the polynomial vanishes identically, in which
    case the table is empty and r1 = r2 = -1.
    """

    def __init__(self, r: Optional[int], entries: dict, r1: int = -1, r2: int = -1):
        self.r, self.entries, self.r1, self.r2 = r, entries, r1, r2

    def diagonal(self) -> list[int]:
        """Values e_(i, r-i) for i = 0..r (empty when r is None)."""
        if self.r is None:
            return []
        return [self.entries.get((i, self.r - i), 0) for i in range(self.r + 1)]

    def transposed(self) -> "ETable":
        return ETable(
            self.r,
            {(j, i): v for (i, j), v in self.entries.items()},
            self.r2,
            self.r1,
        )


def e_table(P: HilbertPoly2) -> ETable:
    """Read the mixed multiplicities off the polynomial's top diagonal."""
    if P.is_zero:
        return ETable(None, {})
    r = P.total_degree
    entries = {}
    for i in range(r + 1):
        v = P.coeffs.get((i, r - i), 0)
        if v < 0:
            raise MathInvariantError(
                f"negative top coefficient a_{i}{r-i} = {v}; upstream bug"
            )
        entries[(i, r - i)] = v
    return ETable(r, entries, P.deg_u, P.deg_v)


def total_multiplicity(I: Ideal) -> tuple[int, int]:
    """(Krull dimension, multiplicity) of ring/I under the total grading,
    for a ring whose variables all have total degree 1.

    Specializes the bigraded series at t1 = t2 = t, numerator Q = (1 - t)^k R
    with R(1) != 0: the Taylor coefficients sum_j q_j C(j, m) of Q at t = 1
    vanish for m < k and equal (-1)^k R(1) at m = k. The pole order n - k is
    checked against the combinatorial Krull dimension. Other weights raise
    ``InputError``: the multiplicity then depends on a normalisation.
    """
    if I.is_unit:
        raise InputError("the unit ideal has no multiplicity")
    if not I.ring.is_standard_bigraded:
        raise InputError("the multiplicity needs every variable of total degree 1")
    q: dict[int, int] = {}
    for (a, b), c in series_of(I).numerator.items():
        q[a + b] = q.get(a + b, 0) + c
    for k in range(max(q, default=-1) + 1):
        taylor = sum(c * math.comb(j, k) for j, c in q.items())
        if taylor:
            break
    else:
        raise MathInvariantError("series numerator vanished identically")
    pole = I.ring.nvars - k
    e = (-1) ** k * taylor
    if e <= 0:
        raise MathInvariantError(f"non-positive multiplicity {e}")
    dim = krull_dim(I)
    if pole != dim:
        raise MathInvariantError(
            f"series pole order {pole} disagrees with Krull dimension {dim}"
        )
    return dim, e
