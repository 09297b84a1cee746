#!/usr/bin/env python3
"""Compute the headline numbers of the worked examples and print a summary.

Usage: python scripts/run_examples.py [seed]

The summary goes to stdout, the same bytes for the same seed; the total
time goes to stderr.
"""

from __future__ import annotations

import sys
import time

from mixmult import (FieldSpec, Ideal, Ring, RunConfig, bezout_check, degrees_report,
                     e_table_full, e_value_via_criterion, make_join,
                     mixed_report, rees_and_diagonal, rees_bigraded_crosscheck,
                     sv_degrees)
from mixmult.instances import (ideal_fixtures, three_component_example,
                               two_component_vanishing)


def main(seed: int = 0) -> None:
    t0 = time.monotonic()
    config = RunConfig(seed=seed)

    print("== bigraded algebras ==")
    alg = three_component_example()
    rep = degrees_report(alg)
    table = e_table_full(alg)
    print(f"three-component example: r={rep.r} r1={rep.r1} r2={rep.r2} "
          f"diagonal={table.diagonal()}")
    ring = alg.ring
    seq = [ring.var("x4"), ring.var("x2"), ring.var("y4"), ring.var("y2")]
    print(f"  e_22 via the named filter-regular sequence: "
          f"{e_value_via_criterion(alg, 2, 2, sequence=seq)}")

    vanish = degrees_report(two_component_vanishing(3))
    print(f"vanishing example: polynomial zero={vanish.p_is_zero} "
          f"dims=({vanish.dim_total},{vanish.dim_mod_r1},{vanish.dim_mod_r2})")

    print("\n== ideal mixed multiplicities ==")
    for fx in ideal_fixtures():
        rep = mixed_report(fx.setting, config)
        rees, diag = rees_and_diagonal(fx.setting, rep)
        line = (f"{fx.name:16s} e={rep.e} rho={rep.rho} s(J)={rep.spread} "
                f"ht(J)={rep.height} rees={rees}")
        if diag is not None:
            line += f" diagonal-degree={diag}"
        print(line)
        if fx.setting.defining.is_zero and fx.setting.equigenerated:
            cross = rees_bigraded_crosscheck(fx.setting)
            print(f"{'':16s} regraded-Rees diagonal={cross.diagonal()}")

    print("\n== intersection cycle degrees ==")
    F = FieldSpec(32003)
    px = Ring("PX", ("x0", "x1", "x2"), ((1, 0),) * 3, F)
    py = Ring("PY", ("y0", "y1", "y2"), ((1, 0),) * 3, F)
    cases = [
        ("two lines", Ideal(px, [px.var("x2")]), Ideal(py, [py.var("y0")]), (1, 1)),
        ("two conics",
         Ideal(px, [px.var("x0") * px.var("x2") - px.var("x1") ** 2]),
         Ideal(py, [py.var("y0") * py.var("y1") - py.var("y2") ** 2]), (2, 2)),
        ("line with itself", Ideal(px, [px.var("x2")]),
         Ideal(py, [py.var("y2")]), None),
    ]
    for label, ix, iy, degrees in cases:
        rep = sv_degrees(make_join(ix, iy))
        note = ""
        if degrees:
            note = f" (bezout {degrees[0]}*{degrees[1]}: " \
                   f"{bezout_check(rep, *degrees)})"
        print(f"{label:16s} degrees={rep.degrees} sum={sum(rep.degrees)}{note}")

    print(f"total time: {time.monotonic() - t0:.1f}s", file=sys.stderr)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
