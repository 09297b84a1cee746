"""Bivariate Hilbert series, Hilbert polynomials, and multiplicity extraction.

The series of ring/I is computed from the leading-term monomial ideal M, whose
minimal generators are the leading terms of the reduced basis. Its numerator
over prod_v (1 - t^deg v) comes from a recursion on minimal generators:

- N(0) = 1 and N((1)) = 0.
- Product rule: when the supports of the generators fall into two or more
  connected components in the variable graph, ring/M is a tensor product and
  N(M) is the product of the components' numerators (Bigatti, "Computation
  of Hilbert-Poincare series", J. Pure Appl. Algebra 119, 1997). A lone
  generator m gives the factor 1 - t^deg m, so pairwise coprime generators
  give a product of such factors.
- Pivot: otherwise split on the variable x that most generators contain,

      N(M) = N(M + (x)) + t^deg(x) * N(M : x).

  The minimal generators of both sides are updated in place, with no
  quadratic minimalisation. x replaces exactly the generators it divides,
  so M + (x) is x next to the generators free of x, on disjoint variables,
  and N(M + (x)) = (1 - t^deg x) N(free part). The generators g/x of M : x
  stay minimal among themselves, and only a generator free of x can be
  divided by one of them.

Each node is memoised on its generator set. Hilbert data depends only on the
ideal, so any fixed monomial order works; degrevlex is used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from operator import le
from typing import Optional

from .errors import InputError, MathInvariantError
from .groebner import Ideal, ideal_sum, krull_dim
from .rings import Bidegree, Exponent, Poly, Ring, monomials_of_bidegree

Numerator = dict  # (a, b) -> int, over prod_v (1 - t1^d1 t2^d2)

_numerator_memo: dict = {}


def _num_sub(a: Numerator, b: Numerator) -> Numerator:
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, 0) - v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def _num_add_shifted(a: Numerator, b: Numerator, shift: Bidegree) -> Numerator:
    out = dict(a)
    for (p, q), v in b.items():
        k = (p + shift[0], q + shift[1])
        nv = out.get(k, 0) + v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def _num_mul(a: Numerator, b: Numerator) -> Numerator:
    out: Numerator = {}
    for (p, q), v in a.items():
        for (r, s), w in b.items():
            k = (p + r, q + s)
            nv = out.get(k, 0) + v * w
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
    return out


def _numerator(bidegs: tuple[Bidegree, ...], gens: frozenset) -> Numerator:
    """Series numerator of a monomial ideal given by minimal generators."""
    key = (bidegs, gens)
    hit = _numerator_memo.get(key)
    if hit is not None:
        return hit
    result = _numerator_uncached(bidegs, gens)
    _numerator_memo[key] = result
    return result


def _mono_bideg(bidegs, e: Exponent) -> Bidegree:
    return (
        sum(x * d[0] for x, d in zip(e, bidegs)),
        sum(x * d[1] for x, d in zip(e, bidegs)),
    )


def _components(gens: frozenset) -> list:
    """The generators grouped by the connected components of their supports
    in the variable graph, where one generator joins all of its variables."""
    parts: list = []  # [variable mask, generators], masks pairwise disjoint
    bits = [1 << i for i in range(len(next(iter(gens))))]
    for e in gens:
        mask = sum(compress(bits, e))
        joined = [mask, [e]]
        rest = [joined]
        for part in parts:
            if part[0] & mask:
                joined[0] |= part[0]
                joined[1] += part[1]
            else:
                rest.append(part)
        parts = rest
    return [part[1] for part in parts]


def _numerator_uncached(bidegs, gens: frozenset) -> Numerator:
    if not gens:
        return {(0, 0): 1}
    if any(not any(e) for e in gens):
        return {}
    parts = _components(gens)
    if len(parts) > 1 or len(gens) == 1:
        # generators on disjoint variables: the quotient is a tensor product,
        # and a lone generator m gives the factor 1 - t^deg m
        out: Numerator = {(0, 0): 1}
        for part in parts:
            factor = ({(0, 0): 1, _mono_bideg(bidegs, part[0]): -1} if len(part) == 1
                      else _numerator(bidegs, frozenset(part)))
            out = _num_mul(out, factor)
        return out
    # pivot: the variable that most generators contain
    n = len(bidegs)
    counts = [len(col) - col.count(0) for col in zip(*gens)]
    v = max(range(n), key=lambda i: (counts[i], -i))
    # M + (x_v) is x_v next to the generators free of it
    free = [e for e in gens if not e[v]]
    head = _numerator(bidegs, frozenset(free))
    # M : x_v: the shifted generators stay minimal among themselves, and only
    # a generator free of x_v can be divided by one of them, namely by one
    # that no longer contains x_v
    shifted = [e[:v] + (e[v] - 1,) + e[v + 1:] for e in gens if e[v]]
    freed = [h for h in shifted if not h[v]]
    colon = frozenset(shifted + [
        e for e in free
        if not any(all(map(le, h, e)) for h in freed)
    ])
    tail = _numerator(bidegs, colon)
    # N(M) = (1 - t^d) N(free part) + t^d N(M : x_v), d = deg x_v
    return _num_add_shifted(head, _num_sub(tail, head), bidegs[v])


@dataclass
class HilbertSeries2:
    """Numerator over prod_v (1 - t1^d1(v) t2^d2(v)) for the ambient ring."""

    ring: Ring
    numerator: Numerator

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
    """Bigraded Hilbert series of ring/I for a (bi)homogeneous ideal."""
    for g in I.gens:
        if g.bidegree() is None:
            raise InputError(f"inhomogeneous generator: {g}")
    # the leading terms of a reduced basis are the minimal generators
    lead = frozenset(I.leading_exponents())
    return HilbertSeries2(I.ring, _numerator(I.ring.bidegrees, lead))


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
    return _num_add_shifted(_num_sub(series_of(ideal_sum(I, [f])).numerator, base),
                            base, d)


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


@dataclass
class HilbertPoly2:
    """P(u, v) in the basis binom(u, i) * binom(v, j), with stability bounds.

    ``total_degree`` is None exactly when P is identically zero. For all
    u >= u_star and v >= v_star the polynomial agrees with the Hilbert
    function.
    """

    coeffs: dict  # (i, j) -> int, zero entries dropped
    total_degree: Optional[int]
    deg_u: int  # -1 when P == 0
    deg_v: int
    u_star: int
    v_star: int

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


@dataclass
class ETable:
    """Top-diagonal coefficients of the Hilbert polynomial.

    ``entries`` holds every cell (i, r - i) for i = 0..r; all are nonnegative
    integers. ``r`` is None when the polynomial vanishes identically, in which
    case the table is empty and r1 = r2 = -1.
    """

    r: Optional[int]
    entries: dict = field(default_factory=dict)
    r1: int = -1
    r2: int = -1

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


def e_table(P: HilbertPoly2, r_expected: Optional[int] = None) -> ETable:
    """Read the mixed multiplicities off the polynomial's top diagonal."""
    if P.is_zero:
        if r_expected is not None:
            raise MathInvariantError("expected a nonzero Hilbert polynomial")
        return ETable(None)
    r = P.total_degree
    if r_expected is not None and r != r_expected:
        raise MathInvariantError(
            f"Hilbert polynomial degree {r} disagrees with expected {r_expected}"
        )
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
