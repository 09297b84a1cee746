"""CLI subcommands: JSON shape, determinism, exit codes, and the argument
reader against the argparse parser it replaced."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixmult.cli as cli
from mixmult.cli import _SUBCOMMANDS, _Help, _read_argv, main
from mixmult.config import RunConfig
from mixmult.errors import InputError
from mixmult.hilbert import ETable


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
                       "--i", "2", "--j", "2", "--verify")
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

    def test_verify_cell_disagreeing_with_the_table_is_two(self, capsys, monkeypatch):
        # the criterion reads e_22 = 1; a table that reads 2 there is a bug
        monkeypatch.setattr(cli, "e_table_full",
                            lambda alg: ETable(4, {(i, 4 - i): 2 * (i == 2) for i in range(5)}))
        code, out, err = run_cli(capsys, "bigraded-e", "--file",
                                 "problems/three_component.mix", "--ideal", "I",
                                 "--i", "2", "--j", "2", "--verify")
        assert code == 2 and out == ""
        assert err == "mathematical assertion failed: criterion and table disagree\n"

    @pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["table", "verify"])
    @pytest.mark.parametrize("stem,ideal,cell,message", [
        ("three_component", "I", ("1", "2"),
         "(i, j) = (1, 2) is not on the top diagonal of degree 4"),
        ("three_component", "I", ("5", "-1"),
         "(i, j) = (5, -1) is not on the top diagonal of degree 4"),
        ("mixed_products_vanish", "I", ("0", "0"),
         "the Hilbert polynomial vanishes; no top diagonal"),
        ("twisted_cubic", "J", ("1", "0"),
         "this command needs variables of both bidegrees (1,0) and (0,1)"),
    ])
    def test_cell_off_the_top_diagonal_is_one(self, capsys, verify, stem, ideal, cell,
                                              message):
        # the table route and the criterion refuse a cell in the same words
        code, out, err = run_cli(capsys, "bigraded-e", "--file", f"problems/{stem}.mix",
                                 "--ideal", ideal, "--i", cell[0], "--j", cell[1], *verify)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_single_graded_bigraded_report_is_one(self, capsys):
        code, out, err = run_cli(capsys, "bigraded-report", "--file",
                                 "problems/twisted_cubic.mix", "--ideal", "J")
        assert code == 1 and out == ""
        assert "needs variables of both bidegrees (1,0) and (0,1)" in err

    @pytest.mark.parametrize("verify", [(), ("--verify",)])
    def test_single_graded_bigraded_e_table_is_one(self, capsys, verify):
        # not an empty table: without both kinds Rpp is zero, not the polynomial
        code, out, err = run_cli(capsys, "bigraded-e", "--file", "problems/twisted_cubic.mix",
                                 "--ideal", "J", *verify)
        assert code == 1 and out == ""
        assert err == "error: this command needs variables of both bidegrees (1,0) and (0,1)\n"

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
        assert err == ("error: J must be generated in one degree; its "
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

    # a composite of 79 bits that passes Miller-Rabin to every base 2..37
    PSEUDOPRIME = "318665857834031151167461"
    # the largest prime below 2^64
    PRIME_64 = "18446744073709551557"

    def test_pseudoprime_field_is_one(self, capsys, tmp_path):
        text = Path("problems/three_points.mix").read_text()
        path = tmp_path / "three_points.mix"
        path.write_text(text.replace("field F 32003", f"field F {self.PSEUDOPRIME}"))
        code, out, err = run_cli(capsys, "ideal-mixed", "--file", str(path), "--ideal", "J")
        assert (code, out) == (1, "")
        assert "not below 2^64" in err

    def test_pseudoprime_prime_flag_is_one(self, capsys):
        code, out, err = run_cli(capsys, "ideal-mixed", "--file", "problems/three_points.mix",
                                 "--ideal", "J", "--prime", self.PSEUDOPRIME)
        assert (code, out) == (1, "")
        assert err == (f"error: configured prime {self.PSEUDOPRIME} is not below 2^64, "
                       "where primality is proven\n")

    def test_largest_prime_below_2_64_accepted(self, capsys, tmp_path):
        text = Path("problems/three_points.mix").read_text()
        path = tmp_path / "three_points.mix"
        path.write_text(text.replace("field F 32003", f"field F {self.PRIME_64}"))
        doc = run_json(capsys, "gb", "--file", str(path), "--ideal", "J",
                       "--prime", self.PRIME_64)
        assert doc["config"]["prime"] == self.PRIME_64
        assert doc["result"]["size"] == "3"

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise InputError(message)


def _common(p, needs_file=True):
    if needs_file:
        p.add_argument("--file", required=True, help="problem file")
    p.add_argument("--seed", type=int, default=None,
                   help=f"seed of every random draw (default {RunConfig.seed}, "
                        "or MIXMULT_SEED)")
    p.add_argument("--prime", type=int, default=None,
                   help="bounds random draws over Q only; over F p they lie in "
                        "the field, and every shipped selftest instance is over "
                        f"F 32003 (default {RunConfig.prime}, or MIXMULT_PRIME)")
    p.add_argument("--max-retries", type=int, default=None,
                   help="attempts per certified search before exit 3 (default "
                        f"{RunConfig.max_retries}, or MIXMULT_MAX_RETRIES)")


def _ideal_args(p):
    _common(p)
    p.add_argument("--ideal", required=True)


def _bigraded_e_args(p):
    _ideal_args(p)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--verify", action="store_true",
                   help="recompute every top-diagonal cell of the table by the criterion")


def _mixed_args(p):
    _common(p)
    p.add_argument("--ideal", required=True, help="the ideal J")
    p.add_argument("--ambient", default=None,
                   help="ideal defining the ambient quotient ring")
    p.add_argument("--verify", action="store_true")


def _sv_args(p):
    _common(p)
    p.add_argument("--x", required=True, help="ideal of the first subscheme")
    p.add_argument("--y", required=True, help="ideal of the second subscheme")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI used before it read ``_SUBCOMMANDS``
    itself: the reference its reader must agree with."""
    parser = _Parser(prog="mixmult",
                     description="exact bigraded Hilbert polynomials, mixed "
                                 "multiplicities, and intersection-cycle degrees")
    sub = parser.add_subparsers(dest="command", required=True)
    arguments = {"gb": _ideal_args, "hilbert": _ideal_args,
                 "bigraded-report": _ideal_args, "bigraded-e": _bigraded_e_args,
                 "ideal-mixed": _mixed_args, "rees-mult": _mixed_args,
                 "diagonal-degree": _mixed_args, "sv": _sv_args,
                 "selftest": lambda p: _common(p, needs_file=False)}
    for name, (helptext, _, _) in _SUBCOMMANDS.items():
        arguments[name](sub.add_parser(name, help=helptext))
    return parser


ORACLE = build_parser()


def _outcome(parse, argv):
    """What ``parse`` makes of ``argv``: the namespace as a dict, a usage
    error with its message, or help."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return vars(parse(list(argv)))
    except InputError as exc:
        return ("usage error", str(exc))
    except (SystemExit, _Help):
        return ("help",)


FLAGS = sorted({flag for _, options, _ in _SUBCOMMANDS.values() for flag, *_ in options})
# "--" is no value after "=": argparse up to 3.12 stores [] for "--file=--",
# 3.13 and the reader "--" (see test_double_dash_after_equals_is_the_value)
WORDS = ("f.mix", "I", "J", "X", "many", "", "-x", "-1.5", "a b", "-x y", "-", " 5",
         "+4", "3_0")
VALUES = st.one_of(st.integers(-20, 20).map(str), st.sampled_from(WORDS))


@st.composite
def command_line(draw):
    """A subcommand, often its required options with values, then flags of
    any subcommand or their prefixes, alone, with a value or with
    ``=value``, ``--``, help now and then, and stray values."""
    name = draw(st.sampled_from(list(_SUBCOMMANDS) + ["bogus"]))
    argv = [name]
    if name in _SUBCOMMANDS and draw(st.booleans()):
        for flag, _, required, _ in _SUBCOMMANDS[name][1]:
            if required:
                argv += [flag, draw(VALUES)]
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from(FLAGS * 4 + ["--bogus", "-x", "-h", "--help", "--"]))
        if flag.startswith("--") and len(flag) > 3 and draw(st.booleans()):
            flag = flag[:draw(st.integers(3, len(flag)))]
        form = draw(st.integers(0, 3))
        if form == 0:
            argv.append(flag)
        elif form == 1:
            argv += [flag, draw(VALUES | st.just("--"))]
        elif form == 2 and flag != "--":
            argv.append(f"{flag}={draw(VALUES)}")
        else:
            argv.append(draw(VALUES))
    return argv


class TestReaderAgainstArgparse:
    """``_read_argv`` reads every argument list as the argparse parser of
    ``build_parser`` does: the same values, or the same usage error."""

    @settings(max_examples=600, deadline=None)
    @given(command_line())
    def test_same_namespace_and_usage_errors(self, argv):
        assert _outcome(_read_argv, argv) == _outcome(ORACLE.parse_args, argv)

    @pytest.mark.parametrize("argv,expected", [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'gb', "
                    "'hilbert', 'bigraded-report', 'bigraded-e', 'ideal-mixed', "
                    "'rees-mult', 'diagonal-degree', 'sv', 'selftest')"),
        (["sv", "--file", "f"], "the following arguments are required: --x, --y"),
        (["gb", "--file", "-x", "--ideal", "I"], "argument --file: expected one argument"),
        (["gb", "--file", "f", "--ideal"], "argument --ideal: expected one argument"),
        (["gb", "--file", "f", "--ideal", "I", "--seed", "3.5"],
         "argument --seed: invalid int value: '3.5'"),
        (["gb", "--file", "f", "--ideal", "I", "extra", "--bogus"],
         "unrecognized arguments: extra --bogus"),
        (["gb", "--file", "f", "--ideal", "I", "--verify"],
         "unrecognized arguments: --verify"),
        (["bigraded-e", "--file", "f", "--ideal", "I", "--verify=yes"],
         "argument --verify: ignored explicit argument 'yes'"),
    ])
    def test_usage_error_wording(self, argv, expected):
        assert _outcome(_read_argv, argv) == ("usage error", expected)
        assert _outcome(ORACLE.parse_args, argv) == ("usage error", expected)

    @pytest.mark.parametrize("argv,values", [
        # unique prefixes, "=", negative numbers and a repeated flag
        (["bigraded-e", "--fi=f.mix", "--id", "I", "--ver", "--s", "-3", "--max", "2",
          "--seed", "4"],
         {"file": "f.mix", "ideal": "I", "verify": True, "seed": 4, "max_retries": 2}),
        # an exact flag beats a prefix: --i is not --ideal here ...
        (["bigraded-e", "--file", "f", "--ideal", "I", "--i", "-1", "--j=2"],
         {"file": "f", "ideal": "I", "i": -1, "j": 2}),
        # ... but is where no --i exists
        (["gb", "--f", "f", "--i", "I", "--p=7"], {"file": "f", "ideal": "I", "prime": 7}),
        (["ideal-mixed", "--file", "f", "--ideal", "J", "--amb", "A"],
         {"file": "f", "ideal": "J", "ambient": "A"}),
    ])
    def test_accepted_forms(self, argv, values):
        outcome = _outcome(_read_argv, argv)
        assert outcome == _outcome(ORACLE.parse_args, argv)
        assert {k: v for k, v in outcome.items() if v not in (None, False)} == \
            {"command": argv[0], **values}

    def test_double_dash_after_equals_is_the_value(self):
        # argparse 3.10-3.12 stored [] here, and the command then failed with
        # exit 4; 3.13 reads "--" as the reader does
        assert _read_argv(["gb", "--file=--", "--ideal", "I"]).file == "--"

    @pytest.mark.parametrize("name", list(_SUBCOMMANDS))
    def test_help(self, capsys, name):
        code, out, err = run_cli(capsys, name, "--file", "f", "--help", "--bogus")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: mixmult {name} [-h]")
        flat = " ".join(out.split())
        for flag, kind, _, text in _SUBCOMMANDS[name][1]:
            assert flag in out and " ".join(text.split()) in flat
        if name != "selftest":
            assert "--file FILE problem file" in flat
        for default in ("default 0, or MIXMULT_SEED", "default 32003, or MIXMULT_PRIME",
                        "default 16, or MIXMULT_MAX_RETRIES"):
            assert default in flat

    @pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
    def test_top_level_help_lists_every_command(self, capsys, flag):
        code, out, err = run_cli(capsys, flag)
        assert (code, err) == (0, "")
        assert out.startswith("usage: mixmult <command>")
        for name, (text, _, _) in _SUBCOMMANDS.items():
            assert f"  {name}" in out and text in out


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
