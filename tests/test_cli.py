"""CLI subcommands: JSON shape, determinism, exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mixmult.cli import _SUBCOMMANDS, build_parser, main
from mixmult.errors import InputError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestCommands:
    def test_gb(self, capsys):
        doc = run_json(capsys, "gb", "--file", "problems/twisted_cubic.mix",
                       "--ideal", "J")
        assert doc["command"] == "gb"
        assert doc["result"]["size"] == "3"
        with open("problems/twisted_cubic.mix", "rb") as fh:
            assert doc["inputs"]["sha256"] == hashlib.sha256(fh.read()).hexdigest()

    def test_hilbert(self, capsys):
        doc = run_json(capsys, "hilbert", "--file", "problems/three_component.mix",
                       "--ideal", "I")
        assert doc["result"]["table"]["diagonal"] == ["0", "0", "1", "0", "0"]
        assert doc["result"]["polynomial"]["total_degree"] == "4"

    def test_bigraded_report(self, capsys):
        doc = run_json(capsys, "bigraded-report", "--file",
                       "problems/three_component.mix", "--ideal", "I")
        assert (doc["result"]["r"], doc["result"]["r1"], doc["result"]["r2"]) == \
            ("4", "3", "3")

    def test_bigraded_report_vanishing(self, capsys):
        doc = run_json(capsys, "bigraded-report", "--file",
                       "problems/mixed_products_vanish.mix", "--ideal", "I")
        assert doc["result"]["p_is_zero"] is True
        assert doc["result"]["r"] is None
        assert doc["result"]["dim_total"] == "3"

    def test_bigraded_e_cell(self, capsys):
        doc = run_json(capsys, "bigraded-e", "--file",
                       "problems/three_component.mix", "--ideal", "I",
                       "--i", "2", "--j", "2")
        assert doc["result"]["e"] == "1"
        assert doc["certificates"]["filter_regular"]["ok"] is True

    def test_ideal_mixed(self, capsys):
        doc = run_json(capsys, "ideal-mixed", "--file",
                       "problems/pair_of_planes.mix", "--ideal", "J",
                       "--ambient", "amb")
        assert doc["result"]["e"] == ["1", "0"]
        assert doc["result"]["rho"] == "0"
        assert doc["result"]["spread"] == "2"

    def test_rees_mult(self, capsys):
        doc = run_json(capsys, "rees-mult", "--file", "problems/twisted_cubic.mix",
                       "--ideal", "J")
        assert doc["result"]["rees_multiplicity"] == "4"

    def test_diagonal_degree(self, capsys):
        doc = run_json(capsys, "diagonal-degree", "--file",
                       "problems/twisted_cubic.mix", "--ideal", "J")
        assert doc["result"]["diagonal_degree"] == "10"

    def test_sv(self, capsys):
        doc = run_json(capsys, "sv", "--file", "problems/two_lines.mix",
                       "--x", "X", "--y", "Y")
        assert doc["result"]["sum"] == "1"


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        args = ("ideal-mixed", "--file", "problems/twisted_cubic.mix",
                "--ideal", "J", "--seed", "42")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_seed_changes_config_not_result(self, capsys):
        doc1 = run_json(capsys, "ideal-mixed", "--file",
                        "problems/twisted_cubic.mix", "--ideal", "J",
                        "--seed", "1")
        doc2 = run_json(capsys, "ideal-mixed", "--file",
                        "problems/twisted_cubic.mix", "--ideal", "J",
                        "--seed", "2")
        assert doc1["result"]["e"] == doc2["result"]["e"]


class TestExitCodes:
    def test_parse_error_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.mix"
        bad.write_text("field Q\nring A vars x:1\nideal I in A = x + w\n")
        code, _, err = run_cli(capsys, "gb", "--file", str(bad), "--ideal", "I")
        assert code == 1 and "w" in err

    def test_missing_file_is_one(self, capsys):
        code, _, _ = run_cli(capsys, "gb", "--file", "problems/nope.mix",
                             "--ideal", "I")
        assert code == 1

    def test_unknown_ideal_is_one(self, capsys):
        code, _, _ = run_cli(capsys, "gb", "--file", "problems/twisted_cubic.mix",
                             "--ideal", "XYZ")
        assert code == 1

    def test_usage_error_is_one(self, capsys):
        code, _, _ = run_cli(capsys, "gb", "--file", "problems/twisted_cubic.mix")
        assert code == 1

    def test_unpaired_cell_flags_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "bigraded-e", "--file",
                             "problems/three_component.mix", "--ideal", "I",
                             "--i", "2")
        assert code == 1

    def test_single_graded_bigraded_report_is_one(self, capsys):
        code, out, err = run_cli(capsys, "bigraded-report", "--file",
                                 "problems/twisted_cubic.mix", "--ideal", "J")
        assert code == 1 and out == ""
        assert "needs variables of both bidegrees (1,0) and (0,1)" in err

    def test_verify_belongs_to_bigraded_e_only(self, capsys):
        code, out, err = run_cli(capsys, "gb", "--file", "problems/twisted_cubic.mix",
                                 "--ideal", "J", "--verify")
        assert code == 1 and out == "" and "--verify" in err

    def test_inhomogeneous_input_is_one(self, capsys, tmp_path):
        bad = tmp_path / "inhom.mix"
        bad.write_text("field Q\nring A vars x:(1,0) y:(0,1)\nideal I in A = x + 1\n")
        code, _, _ = run_cli(capsys, "hilbert", "--file", str(bad), "--ideal", "I")
        assert code == 1

    def test_non_utf8_file_is_one(self, capsys, tmp_path):
        head = b"field Q\nring A vars x:1\nideal I in A = x"
        bad = tmp_path / "latin1.mix"
        bad.write_bytes(head + b"\xff\n")
        code, out, err = run_cli(capsys, "gb", "--file", str(bad), "--ideal", "I")
        assert code == 1 and out == ""
        assert err == f"error: {bad} is not UTF-8 text: byte 0xff at offset {len(head)}\n"

    @pytest.mark.parametrize("command", ["ideal-mixed", "rees-mult", "diagonal-degree"])
    def test_unit_ambient_ideal_is_one(self, capsys, tmp_path, command):
        path = tmp_path / "unit.mix"
        path.write_text("field F 32003\nring P vars a:1 b:1 c:1\n"
                        "ideal J in P = a^2 ; a*b\nideal U in P = 1\n")
        code, out, err = run_cli(capsys, command, "--file", str(path), "--ideal", "J",
                                 "--ambient", "U")
        assert code == 1 and out == ""
        assert err == "error: the ambient ideal is the unit ideal, so A is the zero ring\n"

    @pytest.mark.parametrize("command", ["ideal-mixed", "rees-mult", "diagonal-degree"])
    def test_zero_ideal_is_one(self, capsys, tmp_path, command):
        path = tmp_path / "zero.mix"
        path.write_text("field F 32003\nring R vars a:1 b:1 c:1\nideal J in R = 0\n")
        code, out, err = run_cli(capsys, command, "--file", str(path), "--ideal", "J")
        assert code == 1 and out == ""
        assert err == "error: J is the zero ideal\n"

    def test_mixed_degrees_refused_before_the_spread(self, capsys, tmp_path, monkeypatch):
        # the spread of this J needs the Rees presentation; the refusal must not
        import mixmult.ideal_mixed as ideal_mixed

        def boom(*a, **k):
            raise RuntimeError("the Rees presentation was built")

        monkeypatch.setattr(ideal_mixed, "rees_presentation", boom)
        path = tmp_path / "mixed_degrees.mix"
        path.write_text("field F 32003\nring R vars x:1 y:1 z:1 w:1\n"
                        "ideal J in R = x*y ; y^3 + z^3 ; x^4 + w^4 + z*w^3\n")
        code, out, err = run_cli(capsys, "ideal-mixed", "--file", str(path),
                                 "--ideal", "J")
        assert code == 1 and out == ""
        assert err == ("error: the chain needs J generated in one degree; its "
                       "generators have degrees 2, 3, 4\n")

    @pytest.mark.parametrize("text", ["ring R vars x:(2,0) y:(0,1)\nideal I in R = x*y\n",
                                      "ring R vars x:2 y:2\nideal I in R = x^2\n"])
    def test_hilbert_on_other_degrees_is_zero_without_a_multiplicity(self, capsys,
                                                                      tmp_path, text):
        path = tmp_path / "weighted.mix"
        path.write_text("field Q\n" + text)
        doc = run_json(capsys, "hilbert", "--file", str(path), "--ideal", "I")
        assert set(doc["result"]) == {"numerator"}

    def test_huge_expansion_is_one_and_quick(self, capsys, tmp_path):
        big = tmp_path / "big.mix"
        big.write_text("field F 32003\nring R vars x:(1,0) y:(0,1)\n"
                       "ideal I in R = (x+y)^100000\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "hilbert", "--file", str(big), "--ideal", "I")
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert "3:21: expansion may reach" in err  # at the caret

    def test_genericity_exhaustion_is_three(self, capsys, monkeypatch):
        import mixmult.cli as cli_mod
        from mixmult.errors import GenericityExhausted

        def boom(*a, **k):
            raise GenericityExhausted("forced")

        monkeypatch.setitem(cli_mod._SUBCOMMANDS, "gb", cli_mod._SUBCOMMANDS["gb"][:2] + (boom,))
        code, _, err = run_cli(capsys, "gb", "--file",
                               "problems/twisted_cubic.mix", "--ideal", "J")
        assert code == 3

    def test_math_invariant_is_two(self, capsys, monkeypatch):
        import mixmult.cli as cli_mod
        from mixmult.errors import MathInvariantError

        def boom(*a, **k):
            raise MathInvariantError("forced")

        monkeypatch.setitem(cli_mod._SUBCOMMANDS, "gb", cli_mod._SUBCOMMANDS["gb"][:2] + (boom,))
        code, _, _ = run_cli(capsys, "gb", "--file",
                             "problems/twisted_cubic.mix", "--ideal", "J")
        assert code == 2

    def test_unexpected_exception_is_four(self, capsys, monkeypatch):
        import mixmult.cli as cli_mod

        def boom(*a, **k):
            raise RuntimeError("forced")

        monkeypatch.setitem(cli_mod._SUBCOMMANDS, "gb", cli_mod._SUBCOMMANDS["gb"][:2] + (boom,))
        code, out, err = run_cli(capsys, "gb", "--file",
                                 "problems/twisted_cubic.mix", "--ideal", "J")
        assert code == 4 and out == ""
        assert err.startswith("Traceback")
        assert err.endswith("\ninternal error: RuntimeError: forced\n")


class TestEnvironmentOverrides:
    def test_env_seed_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("MIXMULT_SEED", "777")
        doc = run_json(capsys, "gb", "--file", "problems/twisted_cubic.mix",
                       "--ideal", "J")
        assert doc["config"]["seed"] == "777"

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MIXMULT_SEED", "777")
        doc = run_json(capsys, "gb", "--file", "problems/twisted_cubic.mix",
                       "--ideal", "J", "--seed", "5")
        assert doc["config"]["seed"] == "5"

    def test_bad_env_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("MIXMULT_MAX_RETRIES", "many")
        code, _, _ = run_cli(capsys, "gb", "--file", "problems/twisted_cubic.mix",
                             "--ideal", "J")
        assert code == 1


class TestOneSubcommandParser:
    """``main`` builds only the subparser its first argument names; that
    parser must read every argument list as the full parser does."""

    TAILS = (
        [],
        ["--file", "f.mix"],
        ["--file", "f.mix", "--ideal", "I", "--seed", "3", "--prime", "7",
         "--max-retries", "2"],
        ["--file", "f.mix", "--ideal", "I", "--i", "1", "--j", "2", "--verify"],
        ["--file", "f.mix", "--ideal", "J", "--ambient", "A"],
        ["--file", "f.mix", "--x", "X", "--y", "Y"],
        ["--seed", "many"],
        ["--file", "f.mix", "--ideal", "I", "extra"],
        ["--bogus"],
    )

    @staticmethod
    def _outcome(parser, argv):
        try:
            return vars(parser.parse_args(argv))
        except InputError as exc:
            return ("usage error", str(exc))

    def test_same_namespace_and_usage_errors(self):
        full = build_parser()
        for name in _SUBCOMMANDS:
            one = build_parser(name)
            for tail in self.TAILS:
                argv = [name] + tail
                assert self._outcome(one, argv) == self._outcome(full, argv), argv

    def test_help_is_the_same(self, capsys):
        for name in _SUBCOMMANDS:
            texts = []
            for parser in (build_parser(name), build_parser()):
                with pytest.raises(SystemExit):
                    parser.parse_args([name, "--help"])
                texts.append(capsys.readouterr().out)
            assert texts[0] == texts[1] and texts[0].startswith(f"usage: mixmult {name}")


def test_closed_stdout_exits_quietly():
    # a pipe whose read end is closed before the command writes to it: the
    # write fails with EPIPE, as under ``mixmult sv ... | true``
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mixmult", "sv", "--file", "problems/two_lines.mix",
             "--x", "X", "--y", "Y"],
            cwd=root, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
