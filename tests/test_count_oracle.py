"""Mixed multiplicities of monomial ideals by counting monomials.

For a monomial ideal J in k[x, y, z] and M = m^v J^u, the monomials of M
outside m^{v+1} J^u = m M are the minimal generators of M. Their number
H(u, v) is a polynomial of total degree 2 for large u and v, and its mixed
second differences are the mixed multiplicities:
e_i(m|J) = Delta_u^i Delta_v^(2-i) H. The count shares no code with the
Groebner stack, so it checks ``ideal-mixed`` on equigenerated ideals, and
it shows why ``ideal-mixed`` refuses the others.
"""

from __future__ import annotations

import json
import random
from itertools import combinations_with_replacement
from math import comb

import pytest

from mixmult.cli import main

NVARS = 3
NAMES = ("x", "y", "z")


def _monomials(degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(NVARS), degree):
        exp = [0] * NVARS
        for v in combo:
            exp[v] += 1
        out.append(tuple(exp))
    return out


def _shift(m, i: int, by: int) -> tuple[int, ...]:
    return m[:i] + (m[i] + by,) + m[i + 1:]


def _minimal(monos) -> set[tuple[int, ...]]:
    """The minimal generators of the ideal ``monos`` generate: those whose
    quotient by any variable lies outside it."""
    monos = set(monos)
    top = max(sum(m) for m in monos)
    ideal, frontier = set(monos), list(monos)
    while frontier:  # every monomial of the ideal up to degree ``top``
        m = frontier.pop()
        for i in range(NVARS):
            up = _shift(m, i, 1)
            if sum(up) <= top and up not in ideal:
                ideal.add(up)
                frontier.append(up)
    return {m for m in monos
            if not any(m[i] and _shift(m, i, -1) in ideal for i in range(NVARS))}


def _power(gens, u: int) -> set[tuple[int, ...]]:
    acc = {(0,) * NVARS}
    for _ in range(u):
        acc = _minimal(tuple(a + b for a, b in zip(m, g)) for m in acc for g in gens)
    return acc


def _count(gens, u: int, v: int) -> int:
    """The number of minimal generators of m^v J^u."""
    return len(_minimal(tuple(a + b for a, b in zip(g, s))
                        for g in _power(gens, u) for s in _monomials(v)))


def mixed_by_count(gens, base: int = 5) -> list[int]:
    """e_0, e_1, e_2 of the monomial ideal with exponents ``gens``."""
    table = {(u, v): _count(gens, u, v)
             for u in range(base, base + NVARS) for v in range(base, base + NVARS)}
    out = []
    for i in range(NVARS):
        k = NVARS - 1 - i
        out.append(sum((-1) ** (i - a + k - b) * comb(i, a) * comb(k, b)
                       * table[(base + a, base + b)]
                       for a in range(i + 1) for b in range(k + 1)))
    return out


def _text(gens) -> str:
    def mono(e):
        return "*".join(f"{n}^{k}" if k > 1 else n for n, k in zip(NAMES, e) if k)
    return " ; ".join(mono(e) for e in gens)


def _ideal_mixed(tmp_path, gens):
    path = tmp_path / "monomial.mix"
    path.write_text("field F 32003\nring R vars x:1 y:1 z:1\n"
                    f"ideal J in R = {_text(gens)}\n")
    return main(["ideal-mixed", "--file", str(path), "--ideal", "J"])


THREE_POINTS = ((1, 1, 0), (1, 0, 1), (0, 1, 1))
X_Y2 = ((1, 0, 0), (0, 2, 0))
X_Y2_Z3 = ((1, 0, 0), (0, 2, 0), (0, 0, 3))


def _equigenerated_sample(count: int = 8) -> list:
    """Distinct ideals of 2 to 4 monomials of one degree up to 3, seeded."""
    rng = random.Random(20261019)
    sample = [THREE_POINTS, ((2, 0, 0), (0, 2, 0))]
    while len(sample) < count:
        gens = tuple(sorted(rng.sample(_monomials(rng.randint(1, 3)), rng.randint(2, 4))))
        if gens not in sample:
            sample.append(gens)
    return sample


@pytest.mark.parametrize("gens,expected", [
    (THREE_POINTS, [1, 2, 1]),
    (((2, 0, 0), (0, 2, 0)), [1, 2, 0]),
    (X_Y2, [1, 1, 0]),
    (X_Y2_Z3, [1, 1, 2]),
])
def test_count_reproduces_known_values(gens, expected):
    assert mixed_by_count(gens) == expected
    assert mixed_by_count(gens, base=6) == expected


@pytest.mark.parametrize("gens", _equigenerated_sample(), ids=_text)
def test_ideal_mixed_agrees_with_the_count(capsys, tmp_path, gens):
    code = _ideal_mixed(tmp_path, gens)
    out = capsys.readouterr()
    assert code == 0, out.err
    e = [int(v) for v in json.loads(out.out)["result"]["e"]]
    count = mixed_by_count(gens)
    assert count == e + [0] * (NVARS - len(e)), (_text(gens), e, count)


@pytest.mark.parametrize("gens,degrees", [(X_Y2, "1, 2"), (X_Y2_Z3, "1, 2, 3")])
def test_chain_refuses_an_ideal_not_generated_in_one_degree(capsys, tmp_path,
                                                            gens, degrees):
    code = _ideal_mixed(tmp_path, gens)
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err == ("error: J must be generated in one degree; its "
                       f"generators have degrees {degrees}\n")
