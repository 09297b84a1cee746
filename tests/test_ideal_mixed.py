"""Ideal mixed multiplicities: chains, spread, height, closed forms, Rees."""

from __future__ import annotations

import json

import pytest

from mixmult import (FieldSpec, GradedSetting, Ideal, InputError, InstanceLabels,
                     Ring, RunConfig, analytic_spread, closed_form_oracles, height_of,
                     ideal_power, is_reduction_of, mixed_report, order_of,
                     rees_and_diagonal, rees_bigraded_crosscheck, rees_presentation,
                     reduction_invariance_check, sat_chain)
from mixmult.instances import (ideal_fixtures, maximal_ideal_plane,
                               nonrigid_pair_of_planes, reduction_pairs,
                               three_coordinate_points, twisted_cubic)

F = FieldSpec(32003)


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
        chain = sat_chain(planes.setting, 1, RunConfig(seed=7))
        assert chain.dims() == [3, 1]
        # the surviving component is the plane (x2, x3, a1)
        s1 = chain.steps[0].ideal
        assert s1.contains(planes.setting.ring.var("x2"))
        assert s1.contains(planes.setting.ring.var("x3"))

    def test_maximal_ideal_chain(self):
        setting = maximal_ideal_plane().setting
        chain = sat_chain(setting, 1, RunConfig(seed=3))
        assert chain.dims() == [2, 1]
        assert chain.s0.is_zero

    def test_twisted_cubic_dims(self, cubic):
        chain = sat_chain(cubic.setting, 2, RunConfig(seed=11))
        assert chain.dims() == [4, 3, 2]

    def test_chain_capped_by_spread(self, points):
        with pytest.raises(InputError):
            sat_chain(points.setting, 4, RunConfig(seed=0))

    def test_determinism(self, cubic):
        a = sat_chain(cubic.setting, 2, RunConfig(seed=5))
        b = sat_chain(cubic.setting, 2, RunConfig(seed=5))
        assert [s.element for s in a.steps] == [s.element for s in b.steps]
        assert a.dims() == b.dims()

    def test_short_chain_rejected_for_reports(self, cubic):
        # a chain with no dimension drop yet cannot justify trailing zeros
        from mixmult import e_i_values

        short = sat_chain(cubic.setting, 1, RunConfig(seed=5))
        with pytest.raises(InputError):
            e_i_values(cubic.setting, short)


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
        table = rees_bigraded_crosscheck(setting)
        rep = mixed_report(setting, RunConfig(seed=3))
        expected = rep.e + [0] * (table.r + 1 - len(rep.e))
        assert table.diagonal() == expected

    def test_squares_ideal(self):
        R = Ring("SQ", ("x", "y"), ((1, 0),) * 2, F)
        x, y = R.gens()
        setting = GradedSetting(R, Ideal(R), Ideal(R, [x * x, y * y]))
        table = rees_bigraded_crosscheck(setting)
        rep = mixed_report(setting, RunConfig(seed=9))
        expected = rep.e + [0] * (table.r + 1 - len(rep.e))
        assert table.diagonal() == expected

    def test_twisted_cubic(self, cubic):
        table = rees_bigraded_crosscheck(cubic.setting)
        rep = mixed_report(cubic.setting, RunConfig(seed=11))
        expected = rep.e + [0] * (table.r + 1 - len(rep.e))
        assert table.diagonal() == expected
        assert table.r == rep.dim_a - 1

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
            tables.append(rees_bigraded_crosscheck(
                GradedSetting(R, Ideal(R), Ideal(R, [a * a, a * b]))))
        assert tables[0].diagonal() == tables[1].diagonal() == [1, 1]

    def test_non_equigenerated_rejected(self):
        R = Ring("NE", ("x", "y", "z"), ((1, 0),) * 3, F)
        x, y, z = R.gens()
        setting = GradedSetting(R, Ideal(R), Ideal(R, [x, y * z]))
        with pytest.raises(InputError):
            rees_bigraded_crosscheck(setting)

    def test_distinguished_ideal_other_than_m_rejected(self):
        R = Ring("DI", ("x", "y"), ((1, 0),) * 2, F)
        x, y = R.gens()
        squares = GradedSetting(R, Ideal(R), Ideal(R, [x]), primary=Ideal(R, [x * x, y * y]))
        with pytest.raises(InputError, match="maximal ideal"):
            rees_bigraded_crosscheck(squares)
        maximal = GradedSetting(R, Ideal(R), Ideal(R, [x]), primary=Ideal(R, [x, y]))
        assert rees_bigraded_crosscheck(maximal).diagonal() == [1, 0]

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
            table = rees_bigraded_crosscheck(setting)
            rep = mixed_report(setting, RunConfig(seed=17 + idx))
            expected = rep.e + [0] * (table.r + 1 - len(rep.e))
            assert table.diagonal() == expected, idx
            assert table.r == rep.dim_a - 1, idx


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
