"""Exact coefficient fields: the rationals and prime fields F_p.

Elements are plain Python values (``Fraction`` for the rationals, ``int`` in
``[0, p)`` for F_p); a :class:`FieldSpec` carries the arithmetic. Keeping
coefficients unboxed keeps the polynomial inner loops cheap. ``fractions``
loads on the first rational element, so a run over F_p never imports it.
"""

from __future__ import annotations

from .errors import InputError

DEFAULT_PRIME = 32003
# is_prime's witnesses are proven for every input below this, and no further:
# 318665857834031151167461, a composite of 79 bits, passes them all
PRIME_LIMIT = 1 << 64


def require_prime(n: int, what: str) -> None:
    """Raise ``InputError`` unless ``n`` is a prime below ``PRIME_LIMIT``."""
    if n >= PRIME_LIMIT:
        raise InputError(f"{what} {n} is not below 2^64, where primality is proven")
    if not is_prime(n):
        raise InputError(f"{what} {n} is not prime")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the witness set covers all 64-bit inputs."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rational(a):
    """``Fraction(a)``; the first call rebinds this name to ``Fraction`` itself."""
    global _rational
    from fractions import Fraction as _rational
    return _rational(a)


class FieldSpec:
    """The rationals when ``p`` is None, otherwise the prime field F_p."""

    def __init__(self, p: int | None = None):
        if p is not None:
            require_prime(p, "field characteristic")
        self.p = p

    def __eq__(self, other):
        return self.p == other.p if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.p,))

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"

    # -- element construction ------------------------------------------------

    @property
    def zero(self):
        return 0 if self.p is not None else _rational(0)

    @property
    def one(self):
        return 1 if self.p is not None else _rational(1)

    def coerce(self, a):
        """Map an int or Fraction into the field."""
        if isinstance(a, int):
            return a % self.p if self.p is not None else _rational(a)
        if self.p is None:
            return a
        den = a.denominator % self.p
        if den == 0:
            raise InputError(f"denominator {a.denominator} is zero modulo {self.p}")
        return a.numerator * pow(den, self.p - 2, self.p) % self.p

    # -- arithmetic ----------------------------------------------------------

    def normal(self, a):
        """The field element an unnormalised sum of products stands for:
        ``a % p`` over F_p, ``a`` itself over Q."""
        return a % self.p if self.p is not None else a

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a, b):
        return a * b % self.p if self.p is not None else a * b

    def neg(self, a):
        return -a % self.p if self.p is not None else -a

    def pow(self, a, k: int):
        return pow(a, k, self.p) if self.p is not None else a ** k

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("field inverse of zero")
        if self.p is not None:
            return pow(a, self.p - 2, self.p)
        return 1 / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))
