"""Sparse multivariate polynomials over rings with N^2-graded variables.

A :class:`Ring` fixes a variable list, a bidegree ``(d1, d2)`` for each
variable, and a coefficient field. Single-graded rings are the special case
where every second degree coordinate is 0. A :class:`Poly` is an immutable
dict from exponent tuples to nonzero field elements; all arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional, Tuple

from .errors import InputError
from .fields import FieldSpec

Bidegree = Tuple[int, int]
Exponent = Tuple[int, ...]


@dataclass(frozen=True)
class Ring:
    """A named polynomial ring descriptor with per-variable bidegrees."""

    name: str
    variables: tuple[str, ...]
    bidegrees: tuple[Bidegree, ...]
    field: FieldSpec

    def __post_init__(self):
        if len(self.variables) != len(self.bidegrees):
            raise InputError("variable and bidegree counts differ")
        if len(set(self.variables)) != len(self.variables):
            raise InputError(f"duplicate variable names in ring {self.name}")
        for v, (a, b) in zip(self.variables, self.bidegrees):
            if a < 0 or b < 0 or (a == 0 and b == 0):
                raise InputError(f"variable {v} has illegal bidegree ({a},{b})")

    # -- structure -----------------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise InputError(f"unknown variable {name} in ring {self.name}") from None

    @property
    def is_standard_bigraded(self) -> bool:
        return all(d in ((1, 0), (0, 1)) for d in self.bidegrees)

    @property
    def is_single_graded(self) -> bool:
        return all(b == 0 for _, b in self.bidegrees)

    @property
    def first_kind(self) -> tuple[int, ...]:
        """Indices of variables of bidegree (1,0) (the "u" side)."""
        return tuple(i for i, d in enumerate(self.bidegrees) if d == (1, 0))

    @property
    def second_kind(self) -> tuple[int, ...]:
        """Indices of variables of bidegree (0,1) (the "v" side)."""
        return tuple(i for i, d in enumerate(self.bidegrees) if d == (0, 1))

    def monomial_bidegree(self, exp: Exponent) -> Bidegree:
        u = sum(e * d[0] for e, d in zip(exp, self.bidegrees))
        v = sum(e * d[1] for e, d in zip(exp, self.bidegrees))
        return (u, v)

    # -- element constructors --------------------------------------------------

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c) -> "Poly":
        c = self.field.coerce(c)
        zero_exp = (0,) * self.nvars
        return Poly(self, {zero_exp: c} if c else {})

    def var(self, which) -> "Poly":
        i = which if isinstance(which, int) else self.var_index(which)
        exp = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, {exp: self.field.one})

    def gens(self) -> list["Poly"]:
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, exp: Exponent, c=1) -> "Poly":
        c = self.field.coerce(c)
        return Poly(self, {tuple(exp): c} if c else {})


def _degrevlex_sortkey(exp: Exponent):
    # Ascending sortkey corresponds to descending degrevlex monomial order.
    return (-sum(exp), exp[::-1])


class Poly:
    """Immutable sparse polynomial; ``terms`` maps exponent tuples to coefficients."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: Ring, terms: dict, _trusted: bool = False):
        self.ring = ring
        if _trusted:
            self.terms = terms
        else:
            clean = {}
            n = ring.nvars
            for exp, c in terms.items():
                exp = tuple(exp)
                if len(exp) != n or any(e < 0 for e in exp):
                    raise InputError(f"bad exponent {exp} for ring {ring.name}")
                c = ring.field.coerce(c)
                if c:
                    clean[exp] = c
            self.terms = clean
        self._hash = None

    # -- predicates and views --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def total_exp_degree(self) -> int:
        """Largest exponent sum over the terms (0 for the zero polynomial)."""
        return max((sum(e) for e in self.terms), default=0)

    def bidegree(self) -> Optional[Bidegree]:
        """Common bidegree of all terms, or None when inhomogeneous.

        Raises InputError on the zero polynomial, which carries no degree.
        """
        if not self.terms:
            raise InputError("the zero polynomial has no bidegree")
        degs = {self.ring.monomial_bidegree(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def sorted_terms(self) -> list[tuple[Exponent, object]]:
        """Terms in descending degrevlex order (the canonical form)."""
        return sorted(self.terms.items(), key=lambda t: _degrevlex_sortkey(t[0]))

    # -- arithmetic -------------------------------------------------------------

    def _check_ring(self, other: "Poly"):
        if self.ring != other.ring:
            raise InputError(
                f"ring mismatch: {self.ring.name} vs {other.ring.name}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        field = self.ring.field
        acc = dict(self.terms)
        for exp, c in other.terms.items():
            s = field.add(acc.get(exp, field.zero), c)
            if s:
                acc[exp] = s
            else:
                acc.pop(exp, None)
        return Poly(self.ring, acc, _trusted=True)

    def __neg__(self) -> "Poly":
        field = self.ring.field
        return Poly(
            self.ring, {e: field.neg(c) for e, c in self.terms.items()}, _trusted=True
        )

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        field = self.ring.field
        acc: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = field.add(acc.get(exp, field.zero), field.mul(c1, c2))
                if s:
                    acc[exp] = s
                else:
                    acc.pop(exp, None)
        return Poly(self.ring, acc, _trusted=True)

    def __pow__(self, n: int) -> "Poly":
        """Multinomial expansion, one base term at a time: a state (j, m)
        holds the coefficient of m among the products of j factors so far,
        and choosing k more from term c*x^a multiplies it by C(j + k, k) c^k.
        The cost is linear in the number of compositions of n."""
        if not isinstance(n, int) or n < 0:
            raise InputError("polynomial powers take nonnegative integer exponents")
        field = self.ring.field
        terms = list(self.terms.items())
        last = len(terms) - 1
        states = {(0, (0,) * self.ring.nvars): field.one}
        for i, (exp, c) in enumerate(terms):
            # the last term takes whatever the others left over
            ks = range(n + 1) if i < last else {n - j for j, _ in states}
            powers = {k: (tuple(k * a for a in exp), field.pow(c, k)) for k in ks}
            acc: dict = {}
            for (j, m), v in states.items():
                for k in (range(n - j + 1) if i < last else (n - j,)):
                    step, ck = powers[k]
                    key = (j + k, tuple(a + b for a, b in zip(m, step)))
                    s = field.add(acc.get(key, field.zero),
                                  field.mul(v, field.mul(field.coerce(comb(j + k, k)), ck)))
                    if s:
                        acc[key] = s
                    else:
                        acc.pop(key, None)
            states = acc
        return Poly(self.ring, {m: v for (j, m), v in states.items() if j == n},
                    _trusted=True)

    def scale(self, c) -> "Poly":
        field = self.ring.field
        c = field.coerce(c)
        if not c:
            return self.ring.zero()
        return Poly(
            self.ring, {e: field.mul(c, v) for e, v in self.terms.items()}, _trusted=True
        )

    # -- equality, hashing, printing ---------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.name, frozenset(self.terms.items())))
        return self._hash

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.ring.variables
        pieces = []
        for exp, c in self.sorted_terms():
            factors = [
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(exp)
                if e
            ]
            mon = "*".join(factors)
            neg = c < 0
            mag = -c if neg else c
            if not mon:
                body = str(mag)
            elif mag == 1:
                body = mon
            else:
                body = f"{mag}*{mon}"
            if not pieces:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self.ring.name}: {self})"


def monomials_of_bidegree(ring: Ring, u: int, v: int) -> Iterator[Exponent]:
    """Yield every exponent tuple of exact bidegree (u, v)."""
    n = ring.nvars
    cur = [0] * n

    def rec(i: int, ru: int, rv: int):
        if i == n:
            if ru == 0 and rv == 0:
                yield tuple(cur)
            return
        d1, d2 = ring.bidegrees[i]
        cap = ru // d1 if d1 else rv // d2
        if d1 and d2:
            cap = min(ru // d1, rv // d2)
        for e in range(cap + 1):
            cur[i] = e
            yield from rec(i + 1, ru - e * d1, rv - e * d2)
        cur[i] = 0

    if u < 0 or v < 0:
        return
    yield from rec(0, u, v)


def swap_ring(ring: Ring) -> Ring:
    """The same ring with the two grading roles exchanged."""
    return Ring(
        ring.name + "_swapped",
        ring.variables,
        tuple((b, a) for a, b in ring.bidegrees),
        ring.field,
    )


def transport(poly: Poly, target: Ring) -> Poly:
    """Reinterpret a polynomial in a ring with identical variables."""
    if target.variables != poly.ring.variables:
        raise InputError("transport requires identical variable lists")
    return Poly(target, dict(poly.terms), _trusted=True)
