"""Golden CLI output: every problem subcommand on every shipped problem, single
``bigraded-e`` cells with and without ``--verify``, ``ideal-mixed --verify``,
``gb`` and ``hilbert`` on the ideals in ``tests/inputs``, ``selftest``, and
the summary of ``scripts/run_examples.py``.

Each case runs ``mixmult`` in process at ``--seed 0`` from the repository
root and compares stdout byte for byte with ``tests/golden/<case>.out``. An
empty golden file records a command that fails; the run must then exit
nonzero. ``run_examples.out`` holds the script's stdout at seed 0. Regenerate
the files with ``PYTHONPATH=src python tests/test_golden_cli.py`` only when an
output change is intended.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import re
from pathlib import Path

import pytest

from mixmult.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

_SINGLE = ("gb", "hilbert", "bigraded-report", "bigraded-e", "ideal-mixed",
           "rees-mult", "diagonal-degree")
_WITH_AMBIENT = ("ideal-mixed", "rees-mult", "diagonal-degree")


def golden_cases() -> list[tuple[str, list[str]]]:
    """(case name, argv) for each subcommand on each shipped problem file."""
    cases = []
    for path in sorted((ROOT / "problems").glob("*.mix")):
        rel = f"problems/{path.name}"
        ideals = re.findall(r"^ideal (\w+) in (\w+)", path.read_text(), re.M)
        for name, ring in ideals:
            for cmd in _SINGLE:
                cases.append((f"{path.stem}.{cmd}.{name}",
                              [cmd, "--file", rel, "--ideal", name]))
            cases.append((f"{path.stem}.bigraded-e.{name}.verify",
                          ["bigraded-e", "--file", rel, "--ideal", name, "--verify"]))
            for amb, amb_ring in ideals:
                if amb != name and amb_ring == ring:
                    for cmd in _WITH_AMBIENT:
                        cases.append((f"{path.stem}.{cmd}.{name}.{amb}",
                                      [cmd, "--file", rel, "--ideal", name,
                                       "--ambient", amb]))
        for x, _ in ideals:
            for y, _ in ideals:
                cases.append((f"{path.stem}.sv.{x}.{y}",
                              ["sv", "--file", rel, "--x", x, "--y", y]))
    # single cells of bigraded-e: the top diagonal of three_component, and a
    # cell of an algebra whose Hilbert polynomial vanishes (exit 1). With
    # --verify a cell also runs the positivity criterion and prints its
    # witness dimension and certificate: the output a cell gave when the
    # criterion answered
    cells = [("three_component", i, 4 - i) for i in range(5)]
    cells.append(("mixed_products_vanish", 0, 0))
    for stem, i, j in cells:
        argv = ["bigraded-e", "--file", f"problems/{stem}.mix", "--ideal", "I",
                "--i", str(i), "--j", str(j)]
        cases.append((f"{stem}.bigraded-e.I.cell{i}{j}", argv))
        cases.append((f"{stem}.bigraded-e.I.cell{i}{j}.verify", argv + ["--verify"]))
    # gb and hilbert on homogeneous ideals that are not monomial, the input
    # of the signature kernel: (1,1)-forms in 4+4 (a regular sequence) and
    # (2,1)-forms in 3+3 (not one). They live in tests/inputs, not in
    # problems/, whose every file runs under every subcommand.
    for path in sorted((ROOT / "tests" / "inputs").glob("*.mix")):
        if not re.search(r"^ideal I in", path.read_text(), re.M):
            continue
        for cmd in ("gb", "hilbert"):
            cases.append((f"{path.stem}.{cmd}.I",
                          [cmd, "--file", f"tests/inputs/{path.name}", "--ideal", "I"]))
    # ideal-mixed --verify also runs the saturation chain and prints its
    # dimensions and seed: the output ideal-mixed gave when the chain answered
    cases += [(f"{name}.verify", argv + ["--verify"])
              for name, argv in cases if argv[0] == "ideal-mixed"]
    # the Rees presentation at scale, recorded before its pair loop dropped
    # pairs by the Hilbert function: the rational normal quintic, and the
    # join of two plane cubics
    for cmd in ("rees-mult", "ideal-mixed"):
        cases.append((f"rnc5.{cmd}.J", [cmd, "--file", "tests/inputs/rnc5.mix", "--ideal", "J"]))
    cases.append(("join33.sv.X.Y", ["sv", "--file", "tests/inputs/join33.mix", "--x", "X", "--y", "Y"]))
    cases.append(("selftest", ["selftest"]))
    return cases


def run_case(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--seed", "0"])
    return code, out.getvalue()


def run_examples() -> str:
    """stdout of ``scripts/run_examples.py`` at seed 0."""
    spec = importlib.util.spec_from_file_location(
        "run_examples", ROOT / "scripts" / "run_examples.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        script.main(0)
    return out.getvalue()


CASES = golden_cases()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_stdout(name, argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = (GOLDEN / f"{name}.out").read_bytes()
    code, out = run_case(argv)
    assert out.encode() == expected
    assert (code == 0) == bool(expected)


def test_run_examples_stdout():
    assert run_examples().encode() == (GOLDEN / "run_examples.out").read_bytes()


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        (GOLDEN / f"{name}.out").write_bytes(run_case(argv)[1].encode())
    (GOLDEN / "run_examples.out").write_bytes(run_examples().encode())
