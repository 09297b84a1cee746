"""Self-test harness: fixture regressions plus the randomized property suites.

Each suite reports (checks, failures, notes). The CLI ``selftest`` command
aggregates the results into one JSON document and a process exit code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from .bigraded import (degrees_report, e_positivity, e_table_full,
                       e_value_from_prefix, e_value_via_criterion, sum_check)
from .config import RunConfig
from .groebner import Ideal, ideal_sum, krull_dim, saturation
from .hilbert import hilbert_function, polynomial_of, series_of
from .ideal_mixed import mixed_report, reduction_invariance_check
from .instances import (graded_ring, ideal_fixtures, random_bigraded_algebra,
                        random_ideal_pair, reduction_pairs, rigidity_instances,
                        three_component_example, trivial_plane,
                        two_component_vanishing)
from .sv_cycles import bezout_check, make_join, sv_degrees


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: int = 0
    notes: list[str] = field(default_factory=list)

    def ok(self):
        self.checks += 1

    def fail(self, message: str):
        self.checks += 1
        self.failures += 1
        self.notes.append(message)

    def require(self, condition: bool, message: str):
        if condition:
            self.ok()
        else:
            self.fail(message)


def suite_hilbert_oracle(config: RunConfig, count: int = 50,
                         window: int = 8) -> SuiteResult:
    """(a) Series-derived and brute-force Hilbert functions agree."""
    res = SuiteResult("hilbert-oracle")
    rng = random.Random(config.seed)
    for k in range(count):
        alg = random_bigraded_algebra(rng)
        S = series_of(alg.defining)
        mismatch = None
        for u in range(window + 1):
            for v in range(window + 1 - u):
                if S.coefficient(u, v) != hilbert_function(alg.defining, u, v):
                    mismatch = (u, v)
                    break
            if mismatch:
                break
        res.require(mismatch is None,
                    f"instance {k}: series and count differ at {mismatch}")
    return res


def suite_degree_formulas(config: RunConfig, count: int = 20) -> SuiteResult:
    """(b) Saturation-dimension degree formulas match the polynomial."""
    res = SuiteResult("degree-formulas")
    rng = random.Random(config.seed + 1)
    algebras = [three_component_example(), trivial_plane(),
                two_component_vanishing()] + [r.algebra for r in rigidity_instances()]
    algebras += [random_bigraded_algebra(rng) for _ in range(count)]
    for idx, alg in enumerate(algebras):
        try:
            rep = degrees_report(alg)  # raises on any disagreement
            P = alg.polynomial
            res.require(rep.p_is_zero == P.is_zero, f"instance {idx}: vanishing flip")
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            res.fail(f"instance {idx}: {exc}")
    return res


def suite_partial_degree_saturations(config: RunConfig, count: int = 20) -> SuiteResult:
    """(c) Saturating by the mixed products or by one kind of variables gives
    the same quotient dimensions.

    The identity needs the mixed-product saturation to be proper (it compares
    radicals through a power of the maximal ideal); nilpotent-product
    instances are skipped and replaced.
    """
    res = SuiteResult("partial-degree-saturations")
    rng = random.Random(config.seed + 2)
    algebras = [three_component_example(), trivial_plane()]
    budget = 10 * count
    while len(algebras) < count and budget:
        budget -= 1
        alg = random_bigraded_algebra(rng)
        if not saturation(alg.defining, alg.rpp_ideal).is_unit:
            algebras.append(alg)
    for idx, alg in enumerate(algebras):
        sat_pp = saturation(alg.defining, alg.rpp_ideal)
        if sat_pp.is_unit:
            continue
        for one_sided, kind_ideal in (
            (saturation(alg.defining, alg.r1_ideal), alg.r1_ideal),
            (saturation(alg.defining, alg.r2_ideal), alg.r2_ideal),
        ):
            lhs = krull_dim(ideal_sum(sat_pp, kind_ideal))
            rhs = krull_dim(ideal_sum(one_sided, kind_ideal))
            res.require(lhs == rhs, f"instance {idx}: dims {lhs} != {rhs}")
    return res


def suite_positivity_criterion(config: RunConfig) -> SuiteResult:
    """(d) The positivity criterion agrees with the table on every
    top-diagonal cell of every fixture, and values match when positive."""
    res = SuiteResult("positivity-criterion")
    algebras = [three_component_example(), trivial_plane()]
    algebras += [r.algebra for r in rigidity_instances()]
    for idx, alg in enumerate(algebras):
        table = e_table_full(alg)
        if table.r is None:
            continue
        for cell_idx, (i, j) in enumerate(sorted(table.entries)):
            entry = table.entries[(i, j)]
            cell_config = replace(config, seed=config.seed + 13 * cell_idx)
            positive, wdim, cert = e_positivity(alg, i, j, cell_config)
            res.require(positive == (entry > 0),
                        f"instance {idx} cell {(i, j)}: criterion {positive} "
                        f"vs entry {entry}")
            if positive:
                value = e_value_from_prefix(alg, cert, j, cell_config)
                res.require(value == entry,
                            f"instance {idx} cell {(i, j)}: value {value} != {entry}")
    return res


def suite_multiplicity_sum(config: RunConfig, count: int = 12) -> SuiteResult:
    """(e) Total multiplicity equals the diagonal sum whenever the
    conservative height precondition is established."""
    res = SuiteResult("multiplicity-sum")
    rng = random.Random(config.seed + 3)
    algebras = [three_component_example(), trivial_plane()]
    algebras += [r.algebra for r in rigidity_instances()]
    algebras += [random_bigraded_algebra(rng) for _ in range(count)]
    decided = 0
    for idx, alg in enumerate(algebras):
        if alg.defining.is_unit:
            continue
        verdict = sum_check(alg)
        if verdict is None:
            continue
        decided += 1
        res.require(verdict, f"instance {idx}: sum identity failed")
    res.notes.append(f"decided on {decided} instances")
    return res


def suite_saturation_laws(config: RunConfig, count: int = 50) -> SuiteResult:
    """(f) Saturation contains the ideal and is idempotent."""
    res = SuiteResult("saturation-laws")
    rng = random.Random(config.seed + 4)
    for k in range(count):
        I, J = random_ideal_pair(rng)
        if all(g.is_zero for g in J.gens):
            continue
        sat = saturation(I, J)
        res.require(sat.contains_ideal(I), f"pair {k}: saturation lost the ideal")
        res.require(saturation(sat, J).same_ideal(sat), f"pair {k}: not idempotent")
    return res


def suite_grading_swap(config: RunConfig, count: int = 8) -> SuiteResult:
    """(g) Exchanging the gradings transposes series, polynomial, and table."""
    res = SuiteResult("grading-swap")
    rng = random.Random(config.seed + 5)
    algebras = [three_component_example(), trivial_plane()]
    algebras += [random_bigraded_algebra(rng) for _ in range(count)]
    for idx, alg in enumerate(algebras):
        swapped = alg.swapped()
        s1 = series_of(alg.defining)
        s2 = series_of(swapped.defining)
        res.require(
            {(b, a): v for (a, b), v in s1.numerator.items()} == s2.numerator,
            f"instance {idx}: numerators are not transposes",
        )
        t1 = e_table_full(alg)
        t2 = e_table_full(swapped)
        res.require(t1.transposed().entries == t2.entries and t1.r == t2.r,
                    f"instance {idx}: tables are not transposes")
        P1, P2 = polynomial_of(s1), polynomial_of(s2)
        res.require(
            {(j, i): c for (i, j), c in P1.coeffs.items()} == P2.coeffs,
            f"instance {idx}: polynomials are not transposes",
        )
    return res


def suite_reduction_invariance(config: RunConfig) -> SuiteResult:
    """(h) Replacing an ideal by a designed reduction leaves the e-vector."""
    res = SuiteResult("reduction-invariance")
    for idx, (full, reduced) in enumerate(reduction_pairs()):
        try:
            res.require(reduction_invariance_check(full, reduced, config),
                        f"pair {idx}: e-vectors differ")
        except Exception as exc:  # noqa: BLE001
            res.fail(f"pair {idx}: {exc}")
    return res


def suite_rigidity(config: RunConfig) -> SuiteResult:
    """(i) Positivity windows: full window positive on the labelled instances,
    and the interval assertions never fire across the ideal fixtures."""
    res = SuiteResult("rigidity")
    for inst in rigidity_instances():
        rep = degrees_report(inst.algebra)
        table = e_table_full(inst.algebra)
        diag = table.diagonal()
        for i in range(rep.r - rep.r2, rep.r1 + 1):
            res.require(diag[i] > 0,
                        f"{inst.label}: e_({i},{rep.r - i}) = {diag[i]} not positive")
    for fx in ideal_fixtures():
        try:
            rep = mixed_report(fx.setting, config)
            res.ok()
            if fx.labels.first_chain_condition:
                res.require(all(v > 0 for v in rep.e),
                            f"{fx.name}: window not fully positive")
            if fx.expected_e is not None:
                res.require(rep.e == fx.expected_e,
                            f"{fx.name}: e {rep.e} != {fx.expected_e}")
        except Exception as exc:  # noqa: BLE001
            res.fail(f"{fx.name}: {exc}")
    return res


def suite_fixtures(config: RunConfig) -> SuiteResult:
    """Headline regression values for the worked examples."""
    res = SuiteResult("fixtures")

    alg = three_component_example()
    rep = degrees_report(alg)
    res.require((rep.r, rep.r1, rep.r2) == (4, 3, 3),
                f"three-component degrees {(rep.r, rep.r1, rep.r2)}")
    res.require(e_table_full(alg).diagonal() == [0, 0, 1, 0, 0],
                "three-component diagonal")
    ring = alg.ring
    seq = [ring.var("x4"), ring.var("x2"), ring.var("y4"), ring.var("y2")]
    res.require(e_value_via_criterion(alg, 2, 2, sequence=seq) == 1,
                "three-component e_22 via the named sequence")

    van = two_component_vanishing()
    repv = degrees_report(van)
    res.require(repv.p_is_zero and repv.dim_total == 3
                and repv.dim_mod_r1 == 3 and repv.dim_mod_r2 == 3,
                "vanishing example dims")

    for fx in ideal_fixtures():
        rep = mixed_report(fx.setting, config)
        if fx.expected_e is not None:
            res.require(rep.e == fx.expected_e, f"{fx.name} e-vector {rep.e}")
        if fx.expected_spread is not None:
            res.require(rep.spread == fx.expected_spread, f"{fx.name} spread")
        if fx.expected_height is not None:
            res.require(rep.height == fx.expected_height, f"{fx.name} height")

    # intersection cycle degrees in the plane
    from .fields import DEFAULT_PRIME, FieldSpec

    def conics_over(field_: FieldSpec):
        px = graded_ring(("x0", "x1", "x2"), field_, name="PX")
        py = graded_ring(("y0", "y1", "y2"), field_, name="PY")
        qx = px.var("x0") * px.var("x2") - px.var("x1") ** 2
        qy = py.var("y0") * py.var("y1") - py.var("y2") ** 2
        return px, py, make_join(Ideal(px, [qx]), Ideal(py, [qy]))

    px, py, conics = conics_over(FieldSpec(DEFAULT_PRIME))
    lines = make_join(Ideal(px, [px.var("x2")]), Ideal(py, [py.var("y0")]))
    rl = sv_degrees(lines)
    res.require(sum(rl.degrees) == 1 and bezout_check(rl, 1, 1),
                "two lines")
    rc = sv_degrees(conics)
    res.require(sum(rc.degrees) == 4 and bezout_check(rc, 2, 2),
                "two conics")
    # no random draw, so even a field of three elements gives the answer
    res.require(sum(sv_degrees(conics_over(FieldSpec(3))[2]).degrees) == 4,
                "two conics over F 3")
    return res


ALL_SUITES = (
    suite_fixtures,
    suite_hilbert_oracle,
    suite_degree_formulas,
    suite_partial_degree_saturations,
    suite_positivity_criterion,
    suite_multiplicity_sum,
    suite_saturation_laws,
    suite_grading_swap,
    suite_reduction_invariance,
    suite_rigidity,
)


def run_selftest(config: RunConfig) -> list[SuiteResult]:
    return [suite(config) for suite in ALL_SUITES]
