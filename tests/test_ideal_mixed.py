"""Ideal mixed multiplicities: chains, spread, height, closed forms, the
Rees route."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import mixmult.ideal_mixed as ideal_mixed
from conftest import closed_form_oracles
from mixmult import (ETable, FieldSpec, GradedSetting, Ideal, InputError, MathInvariantError,
                     Ring, RunConfig, analytic_spread, height_of, ideal_power,
                     is_reduction_of, mixed_report, order_of, rees_and_diagonal,
                     rees_diagonal, rees_presentation, rees_report,
                     reduction_invariance_check, sat_chain)
from mixmult.cli import main
from mixmult.instances import (InstanceLabels, ideal_fixtures, maximal_ideal_plane,
                               nonrigid_pair_of_planes, reduction_pairs,
                               three_coordinate_points, twisted_cubic)

F = FieldSpec(32003)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture(scope="module")
def planes():
    return nonrigid_pair_of_planes()


@pytest.fixture(scope="module")
def cubic():
    return twisted_cubic()


@pytest.fixture(scope="module")
def points():
    return three_coordinate_points()


class TestSpread:
    def test_maximal_ideal(self):
        assert analytic_spread(maximal_ideal_plane().setting) == 2

    def test_pair_of_planes(self, planes):
        assert analytic_spread(planes.setting) == 2

    def test_twisted_cubic(self, cubic):
        assert analytic_spread(cubic.setting) == 3

    def test_three_points(self, points):
        assert analytic_spread(points.setting) == 3


class TestHeight:
    def test_pair_of_planes_height_one(self, planes):
        # non-equidimensional: codimension differs from the dimension gap
        assert height_of(planes.setting) == 1

    def test_twisted_cubic(self, cubic):
        assert height_of(cubic.setting) == 2

    def test_three_points(self, points):
        assert height_of(points.setting) == 2

    def test_maximal_ideal(self):
        assert height_of(maximal_ideal_plane().setting) == 2

    def test_nilpotent_case(self):
        R = Ring("N", ("x", "y"), ((1, 0),) * 2, F)
        x, y = R.gens()
        setting = GradedSetting(R, Ideal(R, [x]), Ideal(R, [x]))
        assert height_of(setting) == 0


class TestChain:
    def test_pair_of_planes_witness(self, planes):
        chain = sat_chain(planes.setting, RunConfig(seed=7))
        assert chain.dims() == [3, 1]
        # the surviving component is the plane (x2, x3, a1)
        s1 = chain.steps[0].ideal
        assert s1.contains(planes.setting.ring.var("x2"))
        assert s1.contains(planes.setting.ring.var("x3"))

    def test_maximal_ideal_chain(self):
        setting = maximal_ideal_plane().setting
        chain = sat_chain(setting, RunConfig(seed=3))
        assert chain.dims() == [2, 1]
        assert chain.s0.is_zero

    def test_twisted_cubic_dims(self, cubic):
        chain = sat_chain(cubic.setting, RunConfig(seed=11))
        assert chain.dims() == [4, 3, 2]

    def test_determinism(self, cubic):
        a = sat_chain(cubic.setting, RunConfig(seed=5))
        b = sat_chain(cubic.setting, RunConfig(seed=5))
        assert [s.element for s in a.steps] == [s.element for s in b.steps]
        assert a.dims() == b.dims()


class TestReports:
    def test_pair_of_planes(self, planes):
        rep = mixed_report(planes.setting, RunConfig(seed=7))
        assert rep.e == [1, 0] and rep.rho == 0
        assert rep.spread == 2 and rep.height == 1 and rep.dim_a == 3

    def test_twisted_cubic(self, cubic):
        rep = mixed_report(cubic.setting, RunConfig(seed=11))
        assert rep.e == [1, 2, 1]

    def test_three_points(self, points):
        rep = mixed_report(points.setting, RunConfig(seed=2))
        assert rep.e == [1, 2, 1]

    def test_positivity_window_independent_of_primary_ideal(self, planes):
        # replacing m by an equigenerated primary ideal leaves the window
        ring = planes.setting.ring
        m2 = ideal_power(Ideal(ring, ring.gens()), 2)
        other = GradedSetting(ring, planes.setting.defining, planes.setting.J,
                              primary=m2)
        rep = mixed_report(other, RunConfig(seed=7))
        assert rep.rho == 0
        assert [v > 0 for v in rep.e] == [True, False]

    def test_scaled_multiplicities_for_square_primary(self, cubic):
        # e_i against m^2 scales by 2^(dim of the step quotient)
        ring = cubic.setting.ring
        m2 = ideal_power(Ideal(ring, ring.gens()), 2)
        other = GradedSetting(ring, Ideal(ring), cubic.setting.J, primary=m2)
        rep2 = mixed_report(other, RunConfig(seed=11))
        rep1 = mixed_report(cubic.setting, RunConfig(seed=11))
        dims = [rep1.dim_a - i for i in range(len(rep1.e))]
        assert rep2.e == [v * 2 ** d for v, d in zip(rep1.e, dims)]


class TestOrder:
    def test_mixed_degrees(self):
        R = Ring("O", ("x", "y", "z"), ((1, 0),) * 3, F)
        x, y, z = R.gens()
        J = Ideal(R, [x * x, y * y * z])
        assert order_of(GradedSetting(R, Ideal(R), J)) == 2

    def test_power_of_maximal(self):
        R = Ring("O2", ("x", "y"), ((1, 0),) * 2, F)
        J = ideal_power(Ideal(R, R.gens()), 3)
        assert order_of(GradedSetting(R, Ideal(R), J)) == 3

    def test_matches_second_entry(self, points):
        rep = mixed_report(points.setting, RunConfig(seed=2))
        assert rep.e[1] == order_of(points.setting) == 2


class TestClosedForms:
    def test_twisted_cubic(self, cubic):
        out = closed_form_oracles(cubic.setting, cubic.labels)
        assert out["equigenerated"]["values"] == [1, 2]
        assert out["equigenerated"]["top"] == 1
        assert out["order"]["e1"] == 2

    def test_three_points(self, points):
        out = closed_form_oracles(points.setting, points.labels)
        assert out["least_degrees"] == {"c1": 2, "c2": 2, "e2": 1}

    def test_no_hypothesis_raises(self):
        # mixed generator degrees over a non-polynomial ambient ring: nothing applies
        R = Ring("NH", ("x", "y"), ((1, 0),) * 2, F)
        x, y = R.gens()
        setting = GradedSetting(R, Ideal(R, [x * y]), Ideal(R, [x + y, y * y]))
        with pytest.raises(InputError):
            closed_form_oracles(setting, InstanceLabels())


class TestReesNumbers:
    def test_twisted_cubic(self, cubic):
        rep = mixed_report(cubic.setting, RunConfig(seed=11))
        rees, diag = rees_and_diagonal(cubic.setting, rep)
        assert rees == 4 and diag == 10

    def test_three_points(self, points):
        rep = mixed_report(points.setting, RunConfig(seed=2))
        rees, diag = rees_and_diagonal(points.setting, rep)
        assert rees == 4 and diag == 6

    def test_pair_of_planes_no_diagonal(self, planes):
        rep = mixed_report(planes.setting, RunConfig(seed=7))
        rees, diag = rees_and_diagonal(planes.setting, rep)
        assert rees == 1 and diag is None


class TestBigradedCrosscheck:
    def test_maximal_ideal_smallest(self):
        setting = maximal_ideal_plane().setting
        rep = mixed_report(setting, RunConfig(seed=3))
        expected = rep.e + [0] * (rep.dim_a - len(rep.e))
        assert rees_diagonal(setting, rep.dim_a) == (expected, rep.dim_a)

    def test_squares_ideal(self):
        R = Ring("SQ", ("x", "y"), ((1, 0),) * 2, F)
        x, y = R.gens()
        setting = GradedSetting(R, Ideal(R), Ideal(R, [x * x, y * y]))
        rep = mixed_report(setting, RunConfig(seed=9))
        expected = rep.e + [0] * (rep.dim_a - len(rep.e))
        assert rees_diagonal(setting, rep.dim_a) == (expected, rep.dim_a)

    def test_twisted_cubic(self, cubic):
        rep = mixed_report(cubic.setting, RunConfig(seed=11))
        expected = rep.e + [0] * (rep.dim_a - len(rep.e))
        assert rees_diagonal(cubic.setting, rep.dim_a) == (expected, rep.dim_a)
        assert rees_diagonal(cubic.setting, None) == (rep.e, rep.dim_a)

    def test_presentation_is_graded_as_r_m_j(self, cubic):
        # x in bidegree (0,1), T_l in (1,0), named like the elimination tags
        pring, pres = rees_presentation(cubic.setting)
        nx, s = cubic.setting.ring.nvars, len(cubic.setting.J.gens)
        assert pring.bidegrees == ((0, 1),) * nx + ((1, 0),) * s
        assert pring.variables[nx:] == ("#T1", "#T2", "#T3")
        assert all(g.bidegree() is not None for g in pres.gens)

    def test_ambient_variables_named_like_rees_variables(self):
        tables = []
        for names in (("x", "y"), ("T1", "T2")):
            R = Ring("TN", names, ((1, 0),) * 2, F)
            a, b = R.gens()
            tables.append(rees_diagonal(
                GradedSetting(R, Ideal(R), Ideal(R, [a * a, a * b])), 2))
        assert tables[0] == tables[1] == ([1, 1], 2)

    def test_non_equigenerated_rejected(self):
        R = Ring("NE", ("x", "y", "z"), ((1, 0),) * 3, F)
        x, y, z = R.gens()
        setting = GradedSetting(R, Ideal(R), Ideal(R, [x, y * z]))
        with pytest.raises(InputError, match="^J must be generated in one degree; its "
                                             "generators have degrees 1, 2$"):
            rees_diagonal(setting, 3)

    def test_distinguished_ideal_other_than_m_rejected(self):
        R = Ring("DI", ("x", "y"), ((1, 0),) * 2, F)
        x, y = R.gens()
        squares = GradedSetting(R, Ideal(R), Ideal(R, [x]), primary=Ideal(R, [x * x, y * y]))
        with pytest.raises(InputError, match="maximal ideal"):
            rees_diagonal(squares, 2)
        maximal = GradedSetting(R, Ideal(R), Ideal(R, [x]), primary=Ideal(R, [x, y]))
        assert rees_diagonal(maximal, 2) == ([1, 0], 2)

    def test_two_routes_agree_on_five_fixtures(self, cubic, points, planes):
        plane2 = Ring("CC2", ("x", "y"), ((1, 0),) * 2, F)
        x, y = plane2.gens()
        space3 = Ring("CC3", ("u", "v", "w"), ((1, 0),) * 3, F)
        settings = [
            GradedSetting(plane2, Ideal(plane2), Ideal(plane2, plane2.gens())),
            GradedSetting(plane2, Ideal(plane2), Ideal(plane2, [x * x, y * y])),
            GradedSetting(plane2, Ideal(plane2),
                          ideal_power(Ideal(plane2, plane2.gens()), 2)),
            GradedSetting(space3, Ideal(space3), Ideal(space3, space3.gens())),
            cubic.setting,
            points.setting,
            planes.setting,  # a quotient ambient ring
        ]
        for idx, setting in enumerate(settings):
            rep = mixed_report(setting, RunConfig(seed=17 + idx))
            expected = rep.e + [0] * (rep.dim_a - len(rep.e))
            assert rees_diagonal(setting, rep.dim_a) == (expected, rep.dim_a), idx


class TestReesReport:
    """The report the CLI prints by default, off the regraded Rees algebra."""

    def test_equals_the_chain_on_every_fixture(self):
        for fx in ideal_fixtures():
            rees = rees_report(fx.setting)
            chain = mixed_report(fx.setting, RunConfig(seed=13))
            assert (rees.e, rees.rho, rees.spread, rees.height, rees.dim_a) == \
                (chain.e, chain.rho, chain.spread, chain.height, chain.dim_a), fx.name
            assert rees.dims == [] and rees.seed is None

    def test_nilpotent_j_is_refused(self):
        R = Ring("NP", ("x", "y"), ((1, 0),) * 2, F)
        x, _ = R.gens()
        with pytest.raises(InputError, match="^J is nilpotent modulo the defining ideal$"):
            rees_report(GradedSetting(R, Ideal(R, [x * x]), Ideal(R, [x])))

    @pytest.mark.parametrize("table,message", [
        # e_3 != 0 past l(J) = 3: cut off, so a bug
        (ETable(3, {(0, 3): 1, (1, 2): 2, (2, 1): 1, (3, 0): 1}), "nonzero e_i at i >= l(J)"),
        # e_2 = 0 < l(J) - 1 over a polynomial ring: no draw to blame
        (ETable(2, {(0, 2): 1, (1, 1): 2, (2, 0): 0}), "vanishes below l(J) - 1"),
    ], ids=["cut", "short"])
    def test_a_wrong_diagonal_is_a_bug(self, monkeypatch, cubic, table, message):
        monkeypatch.setattr(ideal_mixed, "e_table_full", lambda setting: table)
        with pytest.raises(MathInvariantError, match=re.escape(message)):
            rees_report(cubic.setting)

    @pytest.mark.parametrize("command,stem,extra", [
        ("ideal-mixed", "pair_of_planes", ["--ambient", "amb"]),
        ("rees-mult", "pair_of_planes", ["--ambient", "amb"]),
        ("diagonal-degree", "pair_of_planes", ["--ambient", "amb"]),
        ("ideal-mixed", "twisted_cubic", []),
        ("ideal-mixed", "pair_of_planes", ["--ambient", "amb", "--verify"]),
    ], ids=["ideal-mixed", "rees-mult", "diagonal-degree", "polynomial-ring", "verify"])
    def test_one_presentation_per_command(self, monkeypatch, capsys, command, stem, extra):
        # the spread and the diagonal both read it, with or without the chain
        calls = []
        real = ideal_mixed.rees_presentation

        def counting(setting):
            calls.append(setting)
            return real(setting)

        monkeypatch.setattr(ideal_mixed, "rees_presentation", counting)
        main([command, "--file", str(PROBLEMS / f"{stem}.mix"), "--ideal", "J", *extra])
        capsys.readouterr()
        assert len(calls) == 1

    @pytest.mark.parametrize("argv,chains", [
        (["ideal-mixed", "--file", str(PROBLEMS / "pair_of_planes.mix"), "--ideal", "J",
          "--ambient", "amb"], 0),
        (["rees-mult", "--file", str(PROBLEMS / "twisted_cubic.mix"), "--ideal", "J"], 0),
        (["diagonal-degree", "--file", str(PROBLEMS / "three_points.mix"), "--ideal", "J"],
         0),
        (["sv", "--file", str(PROBLEMS / "two_conics.mix"), "--x", "X", "--y", "Y"], 0),
        (["selftest"], 0),
        (["ideal-mixed", "--file", str(PROBLEMS / "twisted_cubic.mix"), "--ideal", "J",
          "--verify"], 1),
    ], ids=["ideal-mixed", "rees-mult", "diagonal-degree", "sv", "selftest", "verify"])
    def test_only_verify_runs_the_chain(self, monkeypatch, capsys, argv, chains):
        calls = []
        real = ideal_mixed.sat_chain

        def counting(setting, config):
            calls.append(config)
            return real(setting, config)

        monkeypatch.setattr(ideal_mixed, "sat_chain", counting)
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == chains

    def test_verify_runs_the_height_chain_once(self, monkeypatch, capsys):
        calls = []
        real = ideal_mixed._height_by_chain

        def counting(setting, config):
            calls.append(config)
            return real(setting, config)

        monkeypatch.setattr(ideal_mixed, "_height_by_chain", counting)
        assert main(["ideal-mixed", "--file", str(PROBLEMS / "pair_of_planes.mix"),
                     "--ideal", "J", "--ambient", "amb", "--verify"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["height"] == "1"
        assert len(calls) == 1

    def test_verify_refuses_a_chain_that_disagrees(self, monkeypatch, capsys):
        wrong = ETable(2, {(0, 2): 1, (1, 1): 3, (2, 0): 1})
        monkeypatch.setattr(ideal_mixed, "e_table_full", lambda setting: wrong)
        argv = ["ideal-mixed", "--file", str(PROBLEMS / "twisted_cubic.mix"), "--ideal", "J"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["result"]["e"] == ["1", "3", "1"]
        assert main(argv + ["--verify"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(
            "mathematical assertion failed: the chain reads e = [1, 2, 1], dim = 4; "
            "the Rees algebra e = [1, 3, 1], dim = 3")


class TestReductions:
    def test_square_pair_confirms_at_one(self):
        (full, reduced), _ = reduction_pairs()
        assert is_reduction_of(full.J, reduced.J) == 1

    def test_identity_reduction(self, cubic):
        assert is_reduction_of(cubic.setting.J, cubic.setting.J) == 0

    def test_non_reduction_rejected(self):
        R = Ring("NR", ("x", "y"), ((1, 0),) * 2, F)
        x, y = R.gens()
        m2 = ideal_power(Ideal(R, R.gens()), 2)
        with pytest.raises(InputError):
            is_reduction_of(m2, Ideal(R, [x * x]))

    def test_invariance_on_designed_pairs(self):
        for full, reduced in reduction_pairs():
            assert reduction_invariance_check(full, reduced, RunConfig(seed=5))


class TestFixtureRegistry:
    def test_every_fixture_reports_expected_values(self):
        for fx in ideal_fixtures():
            rep = mixed_report(fx.setting, RunConfig(seed=13))
            assert rep.e == fx.expected_e, fx.name
            assert rep.spread == fx.expected_spread, fx.name
            assert rep.height == fx.expected_height, fx.name
            # the positivity window is an initial interval reaching height-1
            assert rep.height - 1 <= rep.rho < rep.spread

    def test_first_chain_condition_instances_fill_the_window(self):
        for fx in ideal_fixtures():
            if fx.labels.first_chain_condition:
                rep = mixed_report(fx.setting, RunConfig(seed=13))
                assert all(v > 0 for v in rep.e), fx.name


def test_rational_normal_quintic(capsys, tmp_path):
    """A scale member: the 2x2 minors of the Hankel matrix on x0..x5, whose
    saturation chain runs ten Rabinowitsch-route generators per step. The
    values are those recorded before saturation skipped any generator."""
    from itertools import combinations

    from mixmult.cli import main

    names = [f"x{i}" for i in range(6)]
    minors = [f"{names[i]}*{names[j + 1]} - {names[i + 1]}*{names[j]}"
              for i, j in combinations(range(5), 2)]
    path = tmp_path / "quintic.mix"
    path.write_text("field F 32003\nring P vars " + " ".join(f"{x}:1" for x in names)
                    + "\nideal J in P = " + " ; ".join(minors) + "\n")
    code = main(["ideal-mixed", "--file", str(path), "--ideal", "J", "--seed", "0"])
    out = capsys.readouterr()
    assert code == 0, out.err
    result = json.loads(out.out)["result"]
    e = [int(v) for v in result["e"]]
    ht = int(result["height"])
    assert e == [1, 2, 4, 8, 11, 10]
    assert (ht, int(result["spread"]), int(result["rho"])) == (4, 6, 5)
    # the closed form of an ideal generated by quadrics: e_i = 2^i below the height
    assert e[:ht] == [2**i for i in range(ht)]
