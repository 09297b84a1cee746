"""Intersection cycle degrees on the ruled join."""

from __future__ import annotations

import json

import pytest

import mixmult.sv_cycles as sv_cycles
from mixmult import (ETable, FieldSpec, Ideal, InputError, MathInvariantError, Ring,
                     bezout_check, make_join, rees_bigraded_crosscheck, sv_degrees)
from mixmult.cli import main

F = FieldSpec(32003)


def proj_space(prefix: str, n: int = 2, field: FieldSpec = F) -> Ring:
    """P^n with variables prefix0..prefix<n>."""
    return Ring(f"P{n}_{prefix}", tuple(f"{prefix}{i}" for i in range(n + 1)),
                ((1, 0),) * (n + 1), field)


PX = proj_space("x")
PY = proj_space("y")


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
        join = make_join(line_x(), line_y())
        assert join.ring.nvars == 6 and len(join.J.gens) == 3
        assert len(join.defining.gens) == 2

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
        join = make_join(line_x(), line_y())
        rep = sv_degrees(join)
        assert sum(rep.degrees) == 1
        assert all(d >= 0 for d in rep.degrees)
        assert bezout_check(rep, 1, 1)

    def test_two_conics(self):
        join = make_join(conic_x(), conic_y())
        rep = sv_degrees(join)
        assert sum(rep.degrees) == 4
        assert bezout_check(rep, 2, 2)

    def test_line_self_intersection(self):
        join = make_join(line_x(), Ideal(PY, [PY.var("y2")]))
        rep = sv_degrees(join)
        assert sum(rep.degrees) == 1
        # the distinguished cycle is the line itself, one dimension down
        assert rep.degrees == [0, 1, 0]

    def test_line_against_conic(self):
        join = make_join(line_x(), conic_y())
        rep = sv_degrees(join)
        assert sum(rep.degrees) == 2
        assert bezout_check(rep, 1, 2)

    def test_telescoping_identity_always(self):
        for ix, iy in ((line_x(), line_y()), (conic_x(), conic_y()),
                       (line_x(), conic_y())):
            join = make_join(ix, iy)
            rep = sv_degrees(join)
            assert sum(rep.degrees) == rep.e_list[0]
            assert rep.e_list[-1] == 0

    def test_seed_independence(self, capsys):
        docs = []
        for seed in ("0", "7"):
            code = main(["sv", "--file", "problems/two_conics.mix", "--x", "X",
                         "--y", "Y", "--seed", seed])
            out = capsys.readouterr()
            assert code == 0, out.err
            docs.append(json.loads(out.out))
        assert docs[0]["result"] == docs[1]["result"]
        assert docs[0]["certificates"] == docs[1]["certificates"] == {}


class TestReesRoute:
    """The e_i come off the regraded Rees diagonal: cut or padded to n + 2
    entries, and the same over any field, since nothing is drawn."""

    def test_two_planes_in_p3_cut_the_diagonal(self):
        px, py = proj_space("x", 3), proj_space("y", 3)
        join = make_join(Ideal(px, [px.var("x3")]), Ideal(py, [py.var("y0")]))
        # A has dimension 6, so the diagonal has 6 entries: one more than n + 2
        diagonal = rees_bigraded_crosscheck(join).diagonal()
        assert len(diagonal) == 6 and diagonal[:5] == [1, 1, 1, 1, 0]
        rep = sv_degrees(join)
        assert rep.degrees == [0, 0, 0, 1]
        assert rep.e_list == [1, 1, 1, 1, 0]

    def test_two_points_in_p2_pad_the_diagonal(self):
        px, py = PX, PY
        # the points (1:0:0) and (0:1:0): A has dimension 2, so two entries
        join = make_join(Ideal(px, [px.var("x1"), px.var("x2")]),
                         Ideal(py, [py.var("y0"), py.var("y2")]))
        assert rees_bigraded_crosscheck(join).diagonal() == [1, 1]
        rep = sv_degrees(join)
        assert rep.degrees == [0, 1, 0]
        assert rep.e_list == [1, 1, 0, 0]

    @pytest.mark.parametrize("p", [2, 3])
    def test_two_conics_over_a_small_field(self, p):
        px, py = proj_space("x", 2, FieldSpec(p)), proj_space("y", 2, FieldSpec(p))
        join = make_join(Ideal(px, [px.var("x0") * px.var("x2") - px.var("x1") ** 2]),
                         Ideal(py, [py.var("y0") * py.var("y1") - py.var("y2") ** 2]))
        rep = sv_degrees(join)
        assert rep.degrees == [0, 0, 4]
        assert bezout_check(rep, 2, 2)

    def test_a_nonzero_entry_past_n_plus_one_is_refused(self, monkeypatch):
        monkeypatch.setattr(sv_cycles, "rees_bigraded_crosscheck",
                            lambda setting: ETable(4, {(0, 4): 1, (4, 0): 1}))
        with pytest.raises(MathInvariantError):
            sv_degrees(make_join(line_x(), line_y()))
