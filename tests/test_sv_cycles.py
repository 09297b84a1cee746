"""Intersection cycle degrees on the ruled join."""

from __future__ import annotations

import pytest

from mixmult import (FieldSpec, Ideal, InputError, Ring, RunConfig, bezout_check,
                     make_join, sv_degrees)

F = FieldSpec(32003)


def proj_plane(prefix: str) -> Ring:
    return Ring(f"P_{prefix}", tuple(f"{prefix}{i}" for i in range(3)), ((1, 0),) * 3, F)


PX = proj_plane("x")
PY = proj_plane("y")


def line_x():
    return Ideal(PX, [PX.var("x2")])


def line_y():
    return Ideal(PY, [PY.var("y0")])


def conic_x():
    return Ideal(PX, [PX.var("x0") * PX.var("x2") - PX.var("x1") ** 2])


def conic_y():
    return Ideal(PY, [PY.var("y0") * PY.var("y1") - PY.var("y2") ** 2])


class TestJoins:
    def test_join_shape(self):
        js = make_join(line_x(), line_y())
        assert js.n == 2 and js.ring.nvars == 6
        assert len(js.diagonal.gens) == 3

    def test_dimension_mismatch_rejected(self):
        small = Ring("P1", ("y0", "y1"), ((1, 0),) * 2, F)
        with pytest.raises(InputError):
            make_join(line_x(), Ideal(small, [small.var(0)]))

    def test_name_clash_rejected(self):
        with pytest.raises(InputError):
            make_join(line_x(), Ideal(PX, [PX.var("x0")]))

    def test_empty_subscheme_rejected(self):
        with pytest.raises(InputError):
            make_join(Ideal(PX, [PX.one()]), line_y())


class TestDegrees:
    def test_two_lines(self):
        js = make_join(line_x(), line_y())
        rep = sv_degrees(js, RunConfig(seed=1))
        assert sum(rep.degrees) == 1
        assert all(d >= 0 for d in rep.degrees)
        assert bezout_check(js, rep, 1, 1)

    def test_two_conics(self):
        js = make_join(conic_x(), conic_y())
        rep = sv_degrees(js, RunConfig(seed=1))
        assert sum(rep.degrees) == 4
        assert bezout_check(js, rep, 2, 2)

    def test_line_self_intersection(self):
        js = make_join(line_x(), Ideal(PY, [PY.var("y2")]))
        rep = sv_degrees(js, RunConfig(seed=1))
        assert sum(rep.degrees) == 1
        # the distinguished cycle is the line itself, one dimension down
        assert rep.degrees == [0, 1, 0]

    def test_line_against_conic(self):
        js = make_join(line_x(), conic_y())
        rep = sv_degrees(js, RunConfig(seed=1))
        assert sum(rep.degrees) == 2
        assert bezout_check(js, rep, 1, 2)

    def test_telescoping_identity_always(self):
        for ix, iy in ((line_x(), line_y()), (conic_x(), conic_y()),
                       (line_x(), conic_y())):
            js = make_join(ix, iy)
            rep = sv_degrees(js, RunConfig(seed=4))
            assert sum(rep.degrees) == rep.e_list[0]
            assert rep.e_list[-1] == 0

    def test_seed_independence(self):
        js = make_join(conic_x(), conic_y())
        assert sv_degrees(js, RunConfig(seed=0)).degrees == sv_degrees(js, RunConfig(seed=31337)).degrees
