"""The multidegree of a complete intersection as an oracle for the e-table.

Generic forms f_1..f_s of bidegrees (a_j, b_j) on P^(n1-1) x P^(n2-1), with
s <= n1 + n2 - 2, cut out a scheme whose class in the Chow ring
Z[H1, H2]/(H1^n1, H2^n2) is prod_j (a_j H1 + b_j H2). The top coefficient
e_ij of the Hilbert polynomial of R/(f_1..f_s) is the degree of that class
times H1^i H2^j, so it is the coefficient of H1^(n1-1-i) H2^(n2-1-j) in the
product, and the table is empty exactly when the product is 0. The oracle
multiplies linear forms in H1, H2 and shares no code with the Groebner or
Hilbert layers.

The coefficients of the forms come from ``random.Random(seed)`` in
[1, 32003), over a fixed list of seeds; Hypothesis draws only the sizes,
the bidegrees and which seed, so no shrink makes a form less generic.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixmult import FieldSpec, Ideal, Poly, Ring, e_table, polynomial_of, series_of
from mixmult.rings import monomials_of_bidegree

P = 32003
BIDEGREES = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2)]
SEEDS = list(range(20261021, 20261021 + 16))


def chow_class(n1: int, n2: int, degrees: list) -> dict:
    """prod_j (a_j H1 + b_j H2) mod (H1^n1, H2^n2), as {(p, q): coefficient}."""
    out = {(0, 0): 1}
    for a, b in degrees:
        nxt: dict = {}
        for (p, q), c in out.items():
            for (dp, dq), w in (((1, 0), a), ((0, 1), b)):
                if w and p + dp < n1 and q + dq < n2:
                    nxt[p + dp, q + dq] = nxt.get((p + dp, q + dq), 0) + c * w
        out = nxt
    return out


def generic_forms(n1: int, n2: int, degrees: list, seed: int) -> Ideal:
    names = tuple(f"x{i}" for i in range(n1)) + tuple(f"y{j}" for j in range(n2))
    R = Ring("R", names, ((1, 0),) * n1 + ((0, 1),) * n2, FieldSpec(P))
    rng = random.Random(seed)
    return Ideal(R, [Poly(R, {e: rng.randrange(1, P) for e in monomials_of_bidegree(R, a, b)})
                     for a, b in degrees])


@st.composite
def complete_intersections(draw):
    n1, n2 = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    degrees = draw(st.lists(st.sampled_from(BIDEGREES), min_size=1, max_size=n1 + n2 - 2))
    return n1, n2, degrees, draw(st.sampled_from(SEEDS))


@settings(max_examples=40, deadline=None)
@given(complete_intersections())
@example((3, 3, [(2, 1)] * 3, SEEDS[0]))  # 12 H1^2 H2 + 6 H1 H2^2
@example((2, 2, [(1, 0), (1, 0)], SEEDS[0]))  # H1^2 = 0: no point
def test_table_is_the_multidegree(case):
    n1, n2, degrees, seed = case
    table = e_table(polynomial_of(series_of(generic_forms(n1, n2, degrees, seed))))
    expected = chow_class(n1, n2, degrees)
    if not any(expected.values()):
        assert table.r is None and table.entries == {}
        return
    assert table.r == n1 + n2 - 2 - len(degrees)
    assert table.entries == {(i, table.r - i): expected.get((n1 - 1 - i, n2 - 1 - table.r + i), 0)
                             for i in range(table.r + 1)}


def test_the_oracle_reads_the_worked_example():
    # three (2,1)-forms in 3+3: (2 H1 + H2)^3 mod (H1^3, H2^3)
    assert chow_class(3, 3, [(2, 1)] * 3) == {(2, 1): 12, (1, 2): 6}
