"""Curated example algebras and ideal settings used by the self-test suite.

Labels such as Cohen-Macaulay, domain, or generically-complete-intersection
are instance knowledge attached here by construction; nothing verifies them
algorithmically.
"""

from __future__ import annotations

import random
from typing import Optional

from .bigraded import BigradedAlgebra
from .fields import DEFAULT_PRIME, FieldSpec
from .groebner import Ideal, ideal_intersection, ideal_power
from .ideal_mixed import GradedSetting
from .rings import Poly, Ring

F = FieldSpec(DEFAULT_PRIME)


def bigraded_ring(nx: int, ny: int, field: FieldSpec = F, name: str = "R") -> Ring:
    names = tuple(f"x{i}" for i in range(1, nx + 1)) + tuple(
        f"y{i}" for i in range(1, ny + 1)
    )
    return Ring(name, names, ((1, 0),) * nx + ((0, 1),) * ny, field)


def graded_ring(names: tuple[str, ...], field: FieldSpec = F, name: str = "A") -> Ring:
    return Ring(name, names, ((1, 0),) * len(names), field)


# -- bigraded fixtures --------------------------------------------------------


def two_component_vanishing(n: int = 3) -> BigradedAlgebra:
    """(x_1..x_n) intersect (y_1..y_n): all mixed products vanish, P == 0."""
    ring = bigraded_ring(n, n, name=f"V{n}")
    xs = [ring.var(i) for i in range(n)]
    ys = [ring.var(n + i) for i in range(n)]
    ideal = ideal_intersection(Ideal(ring, xs), Ideal(ring, ys))
    return BigradedAlgebra(ring, ideal)


def three_component_example() -> BigradedAlgebra:
    """(x1,y1) cap (x1,x2,x3) cap (y1,y2,y3) in eight variables.

    The standard instance with a single interior positive entry on the top
    diagonal: e_22 = 1 and zeros elsewhere.
    """
    ring = bigraded_ring(4, 4, name="E8")
    xs = [ring.var(i) for i in range(4)]
    ys = [ring.var(4 + i) for i in range(4)]
    ideal = ideal_intersection(
        ideal_intersection(Ideal(ring, [xs[0], ys[0]]), Ideal(ring, xs[:3])),
        Ideal(ring, ys[:3]),
    )
    return BigradedAlgebra(ring, ideal)


def trivial_plane() -> BigradedAlgebra:
    return BigradedAlgebra(bigraded_ring(1, 1, name="P"), Ideal(bigraded_ring(1, 1, name="P")))


class RigidInstance:
    def __init__(self, algebra: BigradedAlgebra, label: str):
        self.algebra, self.label = algebra, label  # label: "domain" | "cohen-macaulay" | both


def rigidity_instances() -> list[RigidInstance]:
    """Domains and Cohen-Macaulay algebras whose whole admissible window on
    the top diagonal must be strictly positive."""
    out = []
    r22 = bigraded_ring(2, 2, name="H22")
    f = r22.var(0) * r22.var(2) + r22.var(1) * r22.var(3)
    out.append(RigidInstance(BigradedAlgebra(r22, Ideal(r22, [f])), "domain"))
    seg = bigraded_ring(2, 2, name="S22")
    minor = seg.var(0) * seg.var(3) - seg.var(1) * seg.var(2)
    out.append(RigidInstance(BigradedAlgebra(seg, Ideal(seg, [minor])), "domain"))
    r33 = bigraded_ring(3, 3, name="H33")
    g = sum((r33.var(i) * r33.var(3 + i) for i in range(3)), r33.zero())
    out.append(RigidInstance(BigradedAlgebra(r33, Ideal(r33, [g])), "domain"))
    poly = bigraded_ring(3, 2, name="P32")
    out.append(RigidInstance(BigradedAlgebra(poly, Ideal(poly)), "cohen-macaulay"))
    return out


def random_bigraded_algebra(rng: random.Random, max_vars: int = 5) -> BigradedAlgebra:
    """A small random bihomogeneous quotient for property suites."""
    nx = rng.randint(1, max_vars - 1)
    ny = rng.randint(1, max_vars - nx)
    ring = bigraded_ring(nx, ny, name=f"rnd{nx}{ny}")
    ngens = rng.randint(1, 3)
    gens = []
    for _ in range(ngens):
        while True:
            du = rng.randint(0, 2)
            dv = rng.randint(0, 2)
            if 1 <= du + dv <= 3:
                break
        from .rings import monomials_of_bidegree

        monos = list(monomials_of_bidegree(ring, du, dv))
        terms = {}
        for exp in monos:
            if rng.random() < 0.5:
                c = rng.randrange(1, ring.field.p)
                terms[exp] = c
        if not terms:
            terms[monos[rng.randrange(len(monos))]] = 1
        gens.append(Poly(ring, terms))
    return BigradedAlgebra(ring, Ideal(ring, gens))


def random_ideal_pair(rng: random.Random) -> tuple[Ideal, Ideal]:
    """Small random homogeneous ideals in k[z1..z4], for saturation laws."""
    ring = graded_ring(("z1", "z2", "z3", "z4"), name="Z4")

    def rand_ideal() -> Ideal:
        from .rings import monomials_of_bidegree

        gens = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 2)
            monos = list(monomials_of_bidegree(ring, d, 0))
            terms = {}
            for exp in monos:
                if rng.random() < 0.4:
                    terms[exp] = rng.randrange(1, ring.field.p)
            if not terms:
                terms[monos[rng.randrange(len(monos))]] = 1
            gens.append(Poly(ring, terms))
        return Ideal(ring, gens)

    return rand_ideal(), rand_ideal()


# -- graded ideal fixtures ----------------------------------------------------


class InstanceLabels:
    """Hypotheses that are instance knowledge, not computed: local structure
    at the top-dimensional primes and chain conditions."""

    def __init__(self, generically_complete_intersection: bool = False,
                 first_chain_condition: bool = False, has_coprime_least_forms: bool = False):
        self.generically_complete_intersection = generically_complete_intersection
        self.first_chain_condition = first_chain_condition
        self.has_coprime_least_forms = has_coprime_least_forms


class IdealFixture:
    def __init__(self, name: str, setting: GradedSetting, labels: InstanceLabels,
                 expected_e: Optional[list[int]] = None, expected_spread: Optional[int] = None,
                 expected_height: Optional[int] = None):
        self.name, self.setting, self.labels = name, setting, labels
        self.expected_e, self.expected_spread = expected_e, expected_spread
        self.expected_height = expected_height


def nonrigid_pair_of_planes() -> IdealFixture:
    """A = k[x1..x4]/((x1) cap (x2,x3)) with J = (x1, x4): the top mixed
    multiplicity vanishes below the analytic spread."""
    ring = graded_ring(("x1", "x2", "x3", "x4"), name="CE")
    x1, x2, x3, x4 = ring.gens()
    defining = ideal_intersection(Ideal(ring, [x1]), Ideal(ring, [x2, x3]))
    setting = GradedSetting(ring, defining, Ideal(ring, [x1, x4]))
    return IdealFixture("pair-of-planes", setting, InstanceLabels(),
                        expected_e=[1, 0], expected_spread=2, expected_height=1)


def twisted_cubic() -> IdealFixture:
    ring = graded_ring(("x0", "x1", "x2", "x3"), name="TC")
    a, b, c, d = ring.gens()
    J = Ideal(ring, [a * c - b * b, a * d - b * c, b * d - c * c])
    setting = GradedSetting(ring, Ideal(ring), J)
    labels = InstanceLabels(
        generically_complete_intersection=True, first_chain_condition=True
    )
    return IdealFixture("twisted-cubic", setting, labels,
                        expected_e=[1, 2, 1], expected_spread=3, expected_height=2)


def three_coordinate_points() -> IdealFixture:
    ring = graded_ring(("z0", "z1", "z2"), name="PTS")
    z0, z1, z2 = ring.gens()
    J = Ideal(ring, [z0 * z1, z0 * z2, z1 * z2])
    setting = GradedSetting(ring, Ideal(ring), J)
    labels = InstanceLabels(
        generically_complete_intersection=True,
        first_chain_condition=True,
        has_coprime_least_forms=True,
    )
    return IdealFixture("three-points", setting, labels,
                        expected_e=[1, 2, 1], expected_spread=3, expected_height=2)


def maximal_ideal_plane() -> IdealFixture:
    ring = graded_ring(("x", "y"), name="M2")
    setting = GradedSetting(ring, Ideal(ring), Ideal(ring, ring.gens()))
    return IdealFixture("plane-maximal", setting,
                        InstanceLabels(first_chain_condition=True),
                        expected_e=[1, 1], expected_spread=2, expected_height=2)


def reduction_pairs() -> list[tuple[GradedSetting, GradedSetting]]:
    """The two designed reduction fixtures: (m^2, (x^2,y^2)) and the twisted
    cubic against three generic combinations of its quadrics."""
    ring = graded_ring(("x", "y"), name="RP")
    m = Ideal(ring, ring.gens())
    x, y = ring.gens()
    s_full = GradedSetting(ring, Ideal(ring), ideal_power(m, 2))
    s_red = GradedSetting(ring, Ideal(ring), Ideal(ring, [x * x, y * y]))

    tc = twisted_cubic()
    rng = random.Random(20240611)
    gens = tc.setting.J.gens
    combos = []
    for _ in range(3):
        acc = tc.setting.ring.zero()
        for g in gens:
            acc = acc + g.scale(rng.randrange(1, tc.setting.ring.field.p))
        combos.append(acc)
    s_tc_red = GradedSetting(tc.setting.ring, Ideal(tc.setting.ring),
                             Ideal(tc.setting.ring, combos))
    return [(s_full, s_red), (tc.setting, s_tc_red)]


def ideal_fixtures() -> list[IdealFixture]:
    return [
        nonrigid_pair_of_planes(),
        twisted_cubic(),
        three_coordinate_points(),
        maximal_ideal_plane(),
    ]
