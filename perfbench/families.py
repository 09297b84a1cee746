"""Seeded generators of problem files (``.mix`` text) for the benchmark.

Every generator takes a ``random.Random`` and returns the text of one problem
file over ``F 32003``; the same seed gives the same text. The program under
test only ever sees these files.

Size cliffs, measured on the unoptimised kernel (Python 3.11, one core of a
2-core x86-64 machine). Do not scale a family past them, or one command takes
minutes and a run overshoots its time budget:

- rational normal curve of degree 5 (``rational_normal_curve(rng, 5)``):
  more than 200 s for ``ideal-mixed``; degree 4 takes about 5 s.
- random (2,2)-forms in 3+3 variables: more than 300 s for ``hilbert``;
  five (2,1)-forms in 3+3 variables take 2-5 s.
- five (1,1)-forms in 5+5 variables take 1.2-1.6 s for ``hilbert``.
- a monomial ideal with 60 generators in 6+6 variables takes 1-1.6 s.
- the three-component family at n = 4 takes 3-5 s for ``bigraded-e --i --j``
  and 5-7 s with ``--verify``; at n = 5 those take 26 s and 42 s, and even
  ``bigraded-report`` swings between 0.4 s and 4.6 s with the variable order
  and the hash seed.
"""

from __future__ import annotations

import itertools
import random

PRIME = 32003


def _coeff(rng: random.Random) -> int:
    return rng.randrange(1, PRIME)


def _monomial(names, exps) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _exponents(nvars: int, degree: int):
    """All exponent tuples of the given total degree, in a fixed order."""
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        yield tuple(exps)


def _dense_form(rng: random.Random, names, exps_list) -> str:
    return " + ".join(f"{_coeff(rng)}*{_monomial(names, e)}" for e in exps_list)


def _bigraded_header(nx: int, ny: int, ring: str = "B") -> tuple[str, list, list]:
    xs = [f"x{i}" for i in range(1, nx + 1)]
    ys = [f"y{i}" for i in range(1, ny + 1)]
    decl = " ".join(f"{x}:(1,0)" for x in xs) + " " + " ".join(f"{y}:(0,1)" for y in ys)
    return f"field F {PRIME}\nring {ring} vars {decl}\n", xs, ys


def bihomogeneous_forms(rng: random.Random, nx: int, ny: int,
                        bidegree: tuple[int, int], count: int) -> str:
    """``count`` dense random forms of one bidegree in nx + ny variables.

    For (1,1)-forms with count <= min(nx, ny) they form a regular sequence
    for all but a vanishing share of seeds: the series numerator is
    (1 - st)^count, the quotient has dimension nx + ny - count and
    multiplicity 2^count. Other shapes have no closed form (every form
    vanishes on x = 0 and on y = 0).
    """
    head, xs, ys = _bigraded_header(nx, ny)
    a, b = bidegree
    monos = [ex + ey for ex in _exponents(nx, a) for ey in _exponents(ny, b)]
    forms = [_dense_form(rng, xs + ys, monos) for _ in range(count)]
    return head + "ideal I in B = " + " ; ".join(forms) + "\n"


def monomial_ideal(rng: random.Random, nx: int, ny: int, ngens: int,
                   min_degree: int = 4, max_degree: int = 8) -> str:
    """``ngens`` distinct random monomials with total degree in the range."""
    head, xs, ys = _bigraded_header(nx, ny)
    n = nx + ny
    seen: set = set()
    gens = []
    while len(gens) < ngens:
        exps = [0] * n
        for _ in range(rng.randint(min_degree, max_degree)):
            exps[rng.randrange(n)] += 1
        key = tuple(exps)
        if key in seen:
            continue
        seen.add(key)
        gens.append(_monomial(xs + ys, key))
    return head + "ideal I in B = " + " ; ".join(gens) + "\n"


def three_component(rng: random.Random, n: int) -> str:
    """(x1,y1) cap (x1..x_{n-1}) cap (y1..y_{n-1}) in n + n variables.

    The variables of each kind are relabelled by a seeded permutation and
    the generators are shuffled, so the ideal stays monomial and the
    invariants stay fixed: the top diagonal has degree 2(n-2), both partial
    degrees are n-1, and e_{n-2,n-2} = 1.
    """
    head, xs, ys = _bigraded_header(n, n)
    px = xs[:]
    py = ys[:]
    rng.shuffle(px)
    rng.shuffle(py)
    gens = [f"{px[0]}*{py[j]}" for j in range(n - 1)]
    gens += [f"{px[i]}*{py[0]}" for i in range(1, n - 1)]
    rng.shuffle(gens)
    return head + "ideal I in B = " + " ; ".join(gens) + "\n"


def bilinear_hypersurface(rng: random.Random, n: int) -> str:
    """A random full-rank bilinear form sum c_i x_i y_{pi(i)} in n + n variables.

    Generalises the hypersurfaces of ``instances.rigidity_instances``: a
    domain whose top diagonal (degree 2n - 3) is zero except for
    e_{n-2,n-1} = e_{n-1,n-2} = 1.
    """
    head, xs, ys = _bigraded_header(n, n)
    perm = ys[:]
    rng.shuffle(perm)
    form = " + ".join(f"{_coeff(rng)}*{x}*{y}" for x, y in zip(xs, perm))
    return head + "ideal I in B = " + form + "\n"


def rational_normal_curve(rng: random.Random, d: int) -> str:
    """The 2x2 minors of the Hankel matrix of x0..xd, after a seeded
    diagonal change of coordinates x_i -> c_i x_i, which keeps every
    invariant of the curve.

    The minors stay in their fixed order: the cost of ``ideal-mixed`` on the
    quartic depends on the generator order (4-8 s in this order, 41 s after
    one seeded shuffle), which would swamp every other difference between
    runs. That order sensitivity is a defect of the colon/intersection loop,
    recorded in perfbench/NOTES.md.
    """
    names = [f"x{i}" for i in range(d + 1)]
    scale = [_coeff(rng) for _ in names]
    gens = []
    for i, j in itertools.combinations(range(d), 2):
        # minor of columns i, j: x_i x_{j+1} - x_{i+1} x_j
        a = scale[i] * scale[j + 1] % PRIME
        b = scale[i + 1] * scale[j] % PRIME
        gens.append(f"{a}*{names[i]}*{names[j + 1]} - {b}*{names[i + 1]}*{names[j]}")
    decl = " ".join(f"{x}:1" for x in names)
    return (f"field F {PRIME}\nring P vars {decl}\n"
            "ideal J in P = " + " ; ".join(gens) + "\n")


def _plane_ring(prefix: str) -> list[str]:
    return [f"{prefix}{i}" for i in range(3)]


def _plane_form(rng: random.Random, names, degree: int) -> str:
    return _dense_form(rng, names, list(_exponents(3, degree)))


def plane_curve_join(rng: random.Random, dx: int, dy: int) -> str:
    """Two random plane curves of degrees dx and dy, one per copy of P^2.

    They meet properly, so the Stueckrad-Vogel degrees sum to dx * dy.
    """
    xs, ys = _plane_ring("x"), _plane_ring("y")
    return (f"field F {PRIME}\n"
            f"ring PX vars {' '.join(x + ':1' for x in xs)}\n"
            f"ring PY vars {' '.join(y + ':1' for y in ys)}\n"
            f"ideal X in PX = {_plane_form(rng, xs, dx)}\n"
            f"ideal Y in PY = {_plane_form(rng, ys, dy)}\n")


def improper_join(rng: random.Random, shared: int, extra_x: int, extra_y: int) -> str:
    """Plane curves C*L and C*M sharing a random component C of degree
    ``shared``; L, M are random of degrees extra_x, extra_y (0 for none).

    The intersection is improper, yet the Stueckrad-Vogel degrees still sum
    to deg X * deg Y: conic*line against conic*line gives 9, a conic
    against itself gives 4.
    """
    xs, ys = _plane_ring("x"), _plane_ring("y")
    common = list(_exponents(3, shared))
    c = [_coeff(rng) for _ in common]

    def curve(names, extra):
        base = " + ".join(f"{k}*{_monomial(names, e)}" for k, e in zip(c, common))
        if not extra:
            return base
        return f"({base}) * ({_plane_form(rng, names, extra)})"

    return (f"field F {PRIME}\n"
            f"ring PX vars {' '.join(x + ':1' for x in xs)}\n"
            f"ring PY vars {' '.join(y + ':1' for y in ys)}\n"
            f"ideal X in PX = {curve(xs, extra_x)}\n"
            f"ideal Y in PY = {curve(ys, extra_y)}\n")
