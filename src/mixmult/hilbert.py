"""Multigraded Hilbert series, Hilbert polynomials, and multiplicity extraction.

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
keyed by the k degree fields as one int, read off the top of a generator;
the lcm bounds every such degree, so keys add without carries. Each node is
memoised on its layout and generator set, and ``series_of`` keeps the series
on the ideal handle. Hilbert data depends only on the ideal, so any fixed
monomial order works; degrevlex is used throughout.

Outside the recursion every key is a tuple with one entry per grading of
``Ring.degree_columns``: the numerator's degrees, the polynomial's
multi-indices in the basis prod_l binom(u_l, i_l), and the e-table's cells.
``HilbertSeries``, ``HilbertPoly`` and ``ETable`` take any number of
gradings; ``total_multiplicity`` reads the single grading by total degree,
the sum of each key.

``StandardCount`` serves the Hilbert-driven pair drop of ``groebner``: it
counts the monomials of one weighted degree outside the leading terms of a
basis still being built, with one numerator, of a colon, per leading term,
on the layout of its one weight vector.
"""

from __future__ import annotations

import math
from itertools import product
from operator import add, mul, sub
from typing import Optional, Sequence

from .errors import InputError, MathInvariantError
from .groebner import Ideal, _divisible, _minimal, ideal_sum, krull_dim
from .rings import Exponent, Poly, Ring, monomials_of_bidegree

Numerator = dict  # degree tuple -> int, over prod_v (1 - t^deg v)

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


class HilbertSeries:
    """Numerator over prod_v (1 - t^deg v) for the ambient ring, keyed by
    degree tuples with one entry per grading of ``ring.degree_columns``."""

    def __init__(self, ring: Ring, numerator: Numerator):
        self.ring, self.numerator = ring, numerator

    @property
    def counts(self) -> tuple[int, ...]:
        """The variables of each kind, for a standard graded ring: one sum
        per degree column."""
        return tuple(map(sum, self.ring.degree_columns))

    def coefficient(self, *degree: int) -> int:
        """Exact coefficient of t^degree, for standard graded rings."""
        if not self.ring.is_standard_bigraded:
            raise InputError("series coefficients need a standard bigraded ring")
        counts = self.counts
        return sum(c * math.prod(map(_count, map(sub, degree, a), counts))
                   for a, c in self.numerator.items())


def _count(w: int, k: int) -> int:
    """Monomials of degree w in k variables; the coefficient of t^w in (1-t)^-k."""
    if w < 0:
        return 0
    if k == 0:
        return 1 if w == 0 else 0
    return math.comb(w + k - 1, k - 1)


def series_of(I: Ideal) -> HilbertSeries:
    """Multigraded Hilbert series of ring/I for a homogeneous ideal, kept on
    the handle."""
    if I._series is None:
        for g in I.gens:
            if g.bidegree() is None:
                raise InputError(f"inhomogeneous generator: {g}")
        # the leading terms of a reduced basis are the minimal generators;
        # their lcm bounds every exponent field (x_v scaled by its total
        # degree) and every degree the recursion meets, and a pivot count is
        # at most their number
        lead = I.leading_exponents()
        lcm = [max(col) for col in zip(*lead)]
        need = max([*map(mul, lcm, map(sum, I.ring.bidegrees)),
                    *I.ring.monomial_bidegree(lcm)])
        width = 8
        while need >> width - 1 or len(lead) >> width:
            width *= 2
        cols = I.ring.degree_columns
        lay = _Layout(cols, width)
        num = _numerator(lay, frozenset(sum(map(mul, e, lay.units)) for e in lead),
                         _numerator_memo)
        # the degree fields of a key, the first grading highest
        low, shifts = (1 << width) - 1, range((len(cols) - 1) * width, -1, -width)
        I._series = HilbertSeries(I.ring, {tuple([k >> s & low for s in shifts]): c
                                           for k, c in num.items()})
    return I._series


def colon_numerator(I: Ideal, f: Poly) -> Numerator:
    """Series numerator of ((I : f)/I)(-d), for a form f of degree d.

    Multiplication by f gives the exact sequence

        0 -> ((I : f)/I)(-d) -> (R/I)(-d) --f--> R/I -> R/(I + (f)) -> 0,

    so HS(R/(I + (f))) = (1 - t^d) HS(R/I) + t^d HS((I : f)/I), and the
    numerator is N(I + (f)) - (1 - t^d) N(I), with no colon computed. Both
    f and I must be homogeneous; either one inhomogeneous raises
    ``InputError`` (for I, from ``series_of``).
    """
    d = f.bidegree()
    if d is None:
        raise InputError("colon series expects a homogeneous element")
    base = series_of(I).numerator
    out = dict(series_of(ideal_sum(I, [f])).numerator)
    for a, c in base.items():
        out[a] = out.get(a, 0) - c
        shifted = tuple(map(add, a, d))
        out[shifted] = out.get(shifted, 0) + c
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
    return math.comb(z, m) if z >= 0 else (-1) ** m * math.comb(m - z - 1, m)


class HilbertPoly:
    """P in the basis prod_l binom(u_l, i_l), with stability bounds.

    Keys have one entry per grading. ``total_degree`` is None exactly when
    P is identically zero. ``degrees`` holds the degree of P in each grading
    (each -1 when P == 0). At every point at or beyond ``stability``, entry
    by entry, the polynomial agrees with the Hilbert function.
    """

    def __init__(self, coeffs: dict, total_degree: Optional[int],
                 degrees: tuple[int, ...], stability: tuple[int, ...]):
        self.coeffs = coeffs  # alpha -> int, zero entries dropped
        self.total_degree = total_degree
        self.degrees, self.stability = degrees, stability

    def __call__(self, *point: int) -> int:
        return sum(c * math.prod(map(gbinom, point, alpha))
                   for alpha, c in self.coeffs.items())

    @property
    def is_zero(self) -> bool:
        return self.total_degree is None


def polynomial_of(S: HilbertSeries) -> HilbertPoly:
    """The polynomial eventually equal to the Hilbert function of the series."""
    if not S.ring.is_standard_bigraded:
        raise InputError("Hilbert polynomials require a standard bigraded ring")
    counts, num = S.counts, S.numerator
    absent = (-1,) * len(counts)  # the degrees of P == 0
    if not num:
        return HilbertPoly({}, None, absent, (0,) * len(counts))
    stability = tuple(map(max, zip(*num)))
    if 0 in counts:
        # a missing (1-t)-factor makes the function eventually zero; it dies
        # only past the numerator support in that grading
        return HilbertPoly({}, None, absent,
                           tuple(s + (n == 0) for s, n in zip(stability, counts)))
    # a_alpha = sum of c * prod_l binom(n_l-1-a_l, n_l-1-alpha_l) over the
    # terms c t^a, contracted one grading at a time, the last first. A term
    # keeps the degrees not yet contracted, with a vector over the indices of
    # those contracted; each grading takes one binomial row per degree met
    terms, tables = {a: (c,) for a, c in num.items()}, {}
    for l in reversed(range(len(counts))):
        n, groups = counts[l], {}
        rows = tables.setdefault(n, {})  # gradings of one size share rows
        for a, vec in terms.items():
            row = rows.get(a[l])
            if row is None:
                rows[a[l]] = row = [gbinom(n - 1 - a[l], n - 1 - i) for i in range(n)]
            groups.setdefault(a[:l], []).append((row, vec))
        terms = {}
        for prefix, pairs in groups.items():
            left, right = zip(*pairs)
            right = list(zip(*right))
            terms[prefix] = [sum(map(mul, col, vcol)) for col in zip(*left) for vcol in right]
    coeffs = {alpha: c for alpha, c in zip(product(*map(range, counts)), terms[()]) if c}
    if not coeffs:
        return HilbertPoly({}, None, absent, stability)
    return HilbertPoly(coeffs, max(map(sum, coeffs)), tuple(map(max, zip(*coeffs))), stability)


class ETable:
    """Top-diagonal coefficients of the Hilbert polynomial.

    ``entries`` holds every cell alpha with |alpha| = r, one entry per
    grading; all are nonnegative integers. ``r`` is None when the polynomial
    vanishes identically, in which case the table is empty and each entry
    of ``degrees``, the polynomial's degree in each grading, is -1.
    """

    def __init__(self, r: Optional[int], entries: dict, degrees: tuple[int, ...] = (-1, -1)):
        self.r, self.entries, self.degrees = r, entries, degrees

    def diagonal(self) -> list[int]:
        """Values e_alpha over the cells |alpha| = r in lexicographic order:
        e_(i, r-i) for i = 0..r under two gradings (empty when r is None)."""
        if self.r is None:
            return []
        return [self.entries.get(alpha, 0)
                for alpha in product(range(self.r + 1), repeat=len(self.degrees))
                if sum(alpha) == self.r]


def e_table(P: HilbertPoly) -> ETable:
    """Read the mixed multiplicities off the polynomial's top diagonal."""
    if P.is_zero:
        return ETable(None, {}, P.degrees)
    r = P.total_degree
    entries = {}
    for alpha in product(range(r + 1), repeat=len(P.degrees)):
        if sum(alpha) == r:
            v = entries[alpha] = P.coeffs.get(alpha, 0)
            if v < 0:
                raise MathInvariantError(
                    f"negative top coefficient a_{''.join(map(str, alpha))} = {v}; upstream bug"
                )
    return ETable(r, entries, P.degrees)


def total_multiplicity(I: Ideal) -> tuple[int, int]:
    """(Krull dimension, multiplicity) of ring/I under the total grading,
    for a ring whose variables all have total degree 1.

    Specializes the multigraded series at t_l = t, numerator Q = (1 - t)^k R
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
    for a, c in series_of(I).numerator.items():
        q[sum(a)] = q.get(sum(a), 0) + c
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
