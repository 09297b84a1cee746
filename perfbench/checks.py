"""Reference values for the benchmark's output checks.

Nothing here imports mixmult: every expected value comes from a closed form,
from a small independent implementation in this file, or from sympy's
Groebner bases (``modulus=32003``, ``order='grevlex'``, both sides made
monic). sympy is 2-18 times slower than mixmult on these inputs, so each
sympy basis is computed once per input and stored in the cache directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

PRIME = 32003


# -- polynomials as {exponent tuple: coefficient mod p} ------------------------


def _ring_decl(text: str, ring: str) -> list[tuple[str, str]]:
    m = re.search(rf"^ring {re.escape(ring)} vars (.*)$", text, re.M)
    return [tuple(v.split(":")) for v in m.group(1).split()]


def ring_names(text: str, ring: str) -> list[str]:
    """Variable names of ``ring`` in a problem file, in declaration order."""
    return [name for name, _ in _ring_decl(text, ring)]


def ring_bidegrees(text: str, ring: str) -> list[tuple[int, int]]:
    """Bidegrees of the variables of ``ring``; ``v:d`` means (d, 0)."""
    out = []
    for _, deg in _ring_decl(text, ring):
        if deg.isdigit():
            out.append((int(deg), 0))
        else:
            a, b = deg.strip("()").split(",")
            out.append((int(a), int(b)))
    return out


def ideal_line(text: str, ideal: str) -> tuple[str, list[str]]:
    """(ring name, generator strings) of ``ideal`` in a problem file."""
    m = re.search(rf"^ideal {re.escape(ideal)} in (\w+) = (.*)$", text, re.M)
    return m.group(1), [g.strip() for g in m.group(2).split(";")]


def parse_poly(text: str, names: list[str]) -> dict:
    """Parse a sum of terms ``c*x^e*y`` (no parentheses) into a term dict."""
    index = {n: i for i, n in enumerate(names)}
    terms: dict = {}
    for sign, body in re.findall(r"([+-]?)\s*([^+\-\s][^+\-]*)", text):
        coeff, exps = 1, [0] * len(names)
        for factor in body.strip().split("*"):
            if factor.isdigit():
                coeff *= int(factor)
            else:
                name, _, power = factor.partition("^")
                exps[index[name]] += int(power or 1)
        coeff = (-coeff if sign == "-" else coeff) % PRIME
        key = tuple(exps)
        terms[key] = (terms.get(key, 0) + coeff) % PRIME
    return {e: c for e, c in terms.items() if c}


def _grevlex_key(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


def monic(terms: dict) -> dict:
    lead = max(terms, key=_grevlex_key)
    inv = pow(terms[lead], PRIME - 2, PRIME)
    return {e: c * inv % PRIME for e, c in terms.items()}


def basis_key(polys) -> frozenset:
    return frozenset(frozenset(monic(p).items()) for p in polys)


def leading_exponents(polys) -> list[tuple]:
    return [max(p, key=_grevlex_key) for p in polys]


# -- sympy reference bases -------------------------------------------------------


def sympy_basis(text: str, ideal: str, cache_dir: str) -> list[dict]:
    """Reduced grevlex basis of ``ideal`` by sympy, cached by input digest."""
    ring, gens = ideal_line(text, ideal)
    names = ring_names(text, ring)
    digest = hashlib.sha256(f"{ideal}\n{text}".encode()).hexdigest()
    path = os.path.join(cache_dir, f"sympy-{digest}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return [{tuple(e): c for e, c in poly} for poly in json.load(fh)]
    import sympy

    syms = sympy.symbols(names)
    local = dict(zip(names, syms))
    exprs = [sympy.sympify(g.replace("^", "**"), locals=local) for g in gens]
    basis = sympy.groebner(exprs, *syms, modulus=PRIME, order="grevlex")
    polys = []
    for g in basis.exprs:
        poly = sympy.Poly(g, *syms)
        polys.append({e: int(c) % PRIME for e, c in poly.terms()})
    polys = [monic(p) for p in polys]
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump([[[list(e), c] for e, c in p.items()] for p in polys], fh)
    os.replace(tmp, path)
    return polys


# -- Hilbert series of monomial ideals ------------------------------------------


def minimal_monomials(gens) -> frozenset:
    gens = set(gens)
    return frozenset(g for g in gens
                     if not any(o != g and all(a <= b for a, b in zip(o, g)) for o in gens))


def monomial_numerator(gens, bidegrees) -> dict:
    """Numerator of the Hilbert series of S/(gens) over prod_v (1 - s^d1 t^d2).

    Adds one generator at a time: N(J + (m)) = N(J) - s^deg m N(J : m), a
    different recursion from the program's variable splitting.
    """
    memo: dict = {}

    def deg(e):
        return (sum(x * d[0] for x, d in zip(e, bidegrees)),
                sum(x * d[1] for x, d in zip(e, bidegrees)))

    def rec(G: frozenset) -> dict:
        if not G:
            return {(0, 0): 1}
        hit = memo.get(G)
        if hit is not None:
            return hit
        m = max(G)
        rest = G - {m}
        colon = minimal_monomials(tuple(max(a - b, 0) for a, b in zip(g, m)) for g in rest)
        out = dict(rec(rest))
        if not any(not any(g) for g in colon):  # J : m is not the unit ideal
            da, db = deg(m)
            for (a, b), c in rec(colon).items():
                key = (a + da, b + db)
                out[key] = out.get(key, 0) - c
        out = {k: v for k, v in out.items() if v}
        memo[G] = out
        return out

    return rec(minimal_monomials(gens))


def dim_and_multiplicity(numerator: dict, nvars: int) -> tuple[int, int]:
    """Krull dimension and degree of S/I under the total grading, for a
    standard (bi)graded S with ``nvars`` variables."""
    coeffs: dict[int, int] = {}
    for (a, b), c in numerator.items():
        coeffs[a + b] = coeffs.get(a + b, 0) + c
    poly = [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]
    cancelled = 0
    while sum(poly) == 0:
        # divide by (1 - t): the quotient's coefficients are partial sums
        poly = [sum(poly[:k + 1]) for k in range(len(poly) - 1)]
        cancelled += 1
    return nvars - cancelled, sum(poly)


def numerator_of(result: dict) -> dict:
    out = {}
    for key, c in result["numerator"].items():
        a, b = key.split(",")
        out[(int(a), int(b))] = int(c)
    return out


# -- closed forms ----------------------------------------------------------------


def ci11_numerator(k: int) -> dict:
    """(1 - st)^k: k (1,1)-forms that form a regular sequence."""
    return {(i, i): (-1) ** i * math.comb(k, i) for i in range(k + 1)}


# Series numerator of five generic (2,1)-forms in 3+3 variables, from the
# leading terms of sympy 1.14's grevlex basis (81 elements) of the seed-0
# instance of families.bihomogeneous_forms(rng, 3, 3, (2, 1), 5), by
# monomial_numerator. It is the same for every seed outside a proper closed
# set of coefficients; storing it saves the 8 s sympy basis per seed.
F21_NUMERATOR = {
    (0, 0): 1, (2, 1): -5, (3, 5): 15, (3, 6): -10, (4, 2): 10, (4, 4): 15,
    (4, 5): -55, (4, 6): 30, (5, 4): -40, (5, 5): 69, (5, 6): -30, (6, 3): -10,
    (6, 4): 30, (6, 5): -30, (6, 6): 10, (8, 1): 5, (8, 2): -15, (8, 3): 15,
    (8, 4): -5, (10, 1): -3, (10, 2): 8, (10, 3): -6, (10, 5): 1,
}


def ci11_diagonal(n: int, k: int) -> list[int]:
    """e_(i, r-i) of k general (1,1)-forms in P^(n-1) x P^(n-1): the
    coefficient of h1^(n-1) h2^(n-1) in h1^i h2^(r-i) (h1 + h2)^k."""
    r = 2 * n - 2 - k
    return [math.comb(k, n - 1 - i) for i in range(r + 1)]


def three_component_diagonal(n: int) -> list[int]:
    """The component (x1, y1) = P^(n-2) x P^(n-2) gives e_(n-2,n-2) = 1. The
    components point x P^(n-1) and P^(n-1) x point reach the top diagonal
    (degree 2(n-2)) only when n - 1 = 2(n - 2), that is n = 3."""
    r = 2 * (n - 2)
    diag = [0] * (r + 1)
    diag[n - 2] = 1
    if n == 3:
        diag[0] = diag[r] = 1
    return diag


def bilinear_diagonal(n: int) -> list[int]:
    """A (1,1)-hypersurface in P^(n-1) x P^(n-1): e_(n-2,n-1) = e_(n-1,n-2) = 1."""
    r = 2 * n - 3
    return [1 if i in (n - 2, n - 1) else 0 for i in range(r + 1)]


# mixed multiplicities e_i(m|J) of the ideal of the rational normal curve
RATIONAL_NORMAL_E = {3: [1, 2, 1], 4: [1, 2, 4, 4, 2]}


def diagonal_degree(e: list[int], n: int) -> int:
    """Degree of the diagonal embedding: sum_i C(n, i) e_i, n = dim of P^n."""
    return sum(math.comb(n, i) * v for i, v in enumerate(e))
