"""Command-line interface: problem files in, one JSON document out.

Subcommands: gb, hilbert, bigraded-report, bigraded-e, ideal-mixed,
rees-mult, diagonal-degree, sv, selftest. Every integer in the output is
serialized as decimal text so arbitrarily large values survive any JSON
consumer. Exit codes: 0 success, 1 usage or parse error, 2 mathematical
assertion failure, 3 genericity exhausted, 4 internal error (any other
exception: its traceback, then one ``internal error:`` line, on stderr). A
closed stdout exits 1 and prints nothing.

``_SUBCOMMANDS`` is the one description of the CLI: each command's help
line, options and handler. ``_read_argv`` reads ``argv`` against it as
argparse did (exact flags, unique prefixes, ``--flag=value``, negative
numbers as values, required options, ``-h``/``--help``), with argparse's
usage-error wording, and help text is built from the same table. argparse
itself is not used: building its parser and printing its first message
imports gettext and locale and compiles six regexes, 2-3 ms of a command
that spends 4-25 ms of CPU on the shipped files.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace
from typing import Optional

# CPython's own SHA-256 module, as ``random`` takes its SHA-512: hashlib loads
# OpenSSL, about 3.7 MB resident and 4 ms, to hash one input file
try:
    from _sha256 import sha256  # CPython 3.11 and earlier
except ImportError:
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        from hashlib import sha256

from .bigraded import (BigradedAlgebra, degrees_report, e_positivity, e_table_full,
                       e_value_from_prefix)
from .config import RunConfig, load_config
from .errors import GenericityExhausted, InputError, MathInvariantError, MixmultError
from .groebner import Ideal
from .hilbert import e_table, polynomial_of, series_of, total_multiplicity
from .ideal_mixed import GradedSetting, mixed_report, order_of, rees_and_diagonal
from .problemfile import ProblemFile, parse_problem
from .sv_cycles import bezout_check, make_join, sv_degrees


def _encode(value):
    """Recursively stringify integers (bools stay bools)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    return value


def _emit(command: str, inputs: dict, config: RunConfig, result: dict,
          certificates: Optional[dict] = None) -> str:
    doc = {
        "command": command,
        "inputs": _encode(inputs),
        "config": {"seed": str(config.seed), "prime": str(config.prime),
                   "max_retries": str(config.max_retries)},
        "result": _encode(result),
        "certificates": _encode(certificates or {}),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _load_file(path: str) -> tuple[ProblemFile, dict]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        text = raw.decode("utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: byte 0x{raw[exc.start]:02x} "
                         f"at offset {exc.start}") from None
    pf = parse_problem(text)
    digest = sha256(raw).hexdigest()
    return pf, {"file": path, "sha256": digest}


def _pick_ideal(pf: ProblemFile, name: str) -> Ideal:
    if name not in pf.ideals:
        raise InputError(f"no ideal named {name!r} in the problem file")
    return pf.ideals[name]


def _graded_setting(pf: ProblemFile, args) -> tuple[GradedSetting, dict]:
    J = _pick_ideal(pf, args.ideal)
    ring = J.ring
    names = {"ideal": args.ideal}
    if getattr(args, "ambient", None):
        defining = _pick_ideal(pf, args.ambient)
        if defining.ring != ring:
            raise InputError("ambient and ideal live in different rings")
        names["ambient"] = args.ambient
    else:
        defining = Ideal(ring)
    return GradedSetting(ring, defining, J), names


def _table_payload(table) -> dict:
    return {
        "r": table.r,
        "r1": table.r1,
        "r2": table.r2,
        "diagonal": table.diagonal(),
        "entries": {f"{i},{j}": v for (i, j), v in sorted(table.entries.items())},
    }


# -- command handlers ----------------------------------------------------------


def _cmd_gb(args, config: RunConfig) -> str:
    pf, inputs = _load_file(args.file)
    I = _pick_ideal(pf, args.ideal)
    basis = [str(g) for g in I.groebner()]
    inputs["ideal"] = args.ideal
    return _emit("gb", inputs, config,
                 {"order": "degrevlex", "basis": basis, "size": len(basis)})


def _cmd_hilbert(args, config: RunConfig) -> str:
    pf, inputs = _load_file(args.file)
    I = _pick_ideal(pf, args.ideal)
    inputs["ideal"] = args.ideal
    S = series_of(I)
    result: dict = {
        "numerator": {f"{a},{b}": c for (a, b), c in sorted(S.numerator.items())},
    }
    if I.ring.is_standard_bigraded and I.ring.first_kind and I.ring.second_kind:
        P = polynomial_of(S)
        result["polynomial"] = {
            "coeffs": {f"{i},{j}": c for (i, j), c in sorted(P.coeffs.items())},
            "total_degree": P.total_degree,
            "deg_u": P.deg_u,
            "deg_v": P.deg_v,
            "stability": [P.u_star, P.v_star],
        }
        result["table"] = _table_payload(e_table(P))
    # with variables of other degrees the multiplicity depends on a normalisation
    if I.ring.is_standard_bigraded and not I.is_unit:
        dim, mult = total_multiplicity(I)
        result["dimension"] = dim
        result["multiplicity"] = mult
    return _emit("hilbert", inputs, config, result)


def _cmd_bigraded_report(args, config: RunConfig) -> str:
    pf, inputs = _load_file(args.file)
    I = _pick_ideal(pf, args.ideal)
    inputs["ideal"] = args.ideal
    alg = BigradedAlgebra(I.ring, I)
    rep = degrees_report(alg)
    result = {
        "r": rep.r, "r1": rep.r1, "r2": rep.r2,
        "p_is_zero": rep.p_is_zero,
        "dims_saturated": [rep.dim_sat, rep.dim_sat_plus_r2, rep.dim_sat_plus_r1],
        "dim_total": rep.dim_total,
        "dim_mod_first_kind": rep.dim_mod_r1,
        "dim_mod_second_kind": rep.dim_mod_r2,
    }
    return _emit("bigraded-report", inputs, config, result)


def _cmd_bigraded_e(args, config: RunConfig) -> str:
    pf, inputs = _load_file(args.file)
    I = _pick_ideal(pf, args.ideal)
    inputs["ideal"] = args.ideal
    alg = BigradedAlgebra(I.ring, I)
    certificates: dict = {}
    if (args.i is None) != (args.j is None):
        raise InputError("--i and --j must be given together")
    if args.i is not None:
        positive, wdim, cert = e_positivity(alg, args.i, args.j, config)
        value = e_value_from_prefix(alg, cert, args.j, config) if positive else 0
        table = e_table_full(alg)
        if table.entries.get((args.i, args.j), 0) != value:
            raise MathInvariantError("criterion and table disagree")
        result = {"i": args.i, "j": args.j, "e": value,
                  "positive": positive, "witness_dim": wdim}
        certificates["filter_regular"] = {
            "seed": config.seed,
            "elements": [str(s.element) for s in cert.steps],
            "ok": cert.ok,
        }
    else:
        table = e_table_full(alg, verify=args.verify, config=config)
        result = {"table": _table_payload(table), "verified": args.verify}
    return _emit("bigraded-e", inputs, config, result, certificates)


def _cmd_mixed(args, config: RunConfig) -> str:
    """ideal-mixed, rees-mult and diagonal-degree: one mixed report, projected."""
    pf, inputs = _load_file(args.file)
    setting, names = _graded_setting(pf, args)
    inputs.update(names)
    rep = mixed_report(setting, config)
    certificates = None
    if args.command == "ideal-mixed":
        result = {
            "e": rep.e, "rho": rep.rho, "spread": rep.spread, "height": rep.height,
            "dim": rep.dim_a, "dims_along_chain": rep.dims,
            "order": order_of(setting) if setting.defining.is_zero else None,
        }
        certificates = {"seed": rep.seed, "dims": rep.dims}
    else:
        rees, diag = rees_and_diagonal(setting, rep)
        if args.command == "rees-mult":
            result = {"rees_multiplicity": rees, "e": rep.e}
        elif diag is None:
            raise InputError("diagonal degree needs a polynomial ambient ring and "
                             "an equigenerated ideal")
        else:
            result = {"diagonal_degree": diag, "e": rep.e}
    return _emit(args.command, inputs, config, result, certificates)


def _cmd_sv(args, config: RunConfig) -> str:
    pf, inputs = _load_file(args.file)
    I_X = _pick_ideal(pf, args.x)
    I_Y = _pick_ideal(pf, args.y)
    inputs["x"] = args.x
    inputs["y"] = args.y
    rep = sv_degrees(make_join(I_X, I_Y))
    if not bezout_check(rep):
        raise MathInvariantError("telescoping identity failed")
    result = {
        "degrees": rep.degrees,
        "e": rep.e_list,
        "sum": sum(rep.degrees),
    }
    return _emit("sv", inputs, config, result)


def _cmd_selftest(args, config: RunConfig) -> str:
    from .selftest import run_selftest  # with instances, only this command needs it

    results = run_selftest(config)
    failures = sum(r.failures for r in results)
    result = {
        "passed": sum(r.checks - r.failures for r in results),
        "failed": failures,
        "suites": {
            r.name: {"checks": r.checks, "failures": r.failures, "notes": r.notes}
            for r in results
        },
    }
    doc = _emit("selftest", {}, config, result)
    if failures:
        raise _SelftestFailed(doc)
    return doc


class _SelftestFailed(MathInvariantError):
    def __init__(self, doc: str):
        super().__init__("selftest reported failures")
        self.doc = doc


# the options every command takes
_CONFIG = (
    ("--seed", int, False, f"seed of every random draw (default {RunConfig.seed}, "
                           "or MIXMULT_SEED)"),
    ("--prime", int, False, "bounds random draws over Q only; over F p they lie in "
                            "the field, and every shipped selftest instance is over "
                            f"F 32003 (default {RunConfig.prime}, or MIXMULT_PRIME)"),
    ("--max-retries", int, False, "attempts per certified search before exit 3 "
                                  f"(default {RunConfig.max_retries}, or "
                                  "MIXMULT_MAX_RETRIES)"),
)
_FILE = (("--file", str, True, "problem file"),)
_IDEAL = _FILE + _CONFIG + (("--ideal", str, True, "name of the ideal in the file"),)
_MIXED = _FILE + _CONFIG + (
    ("--ideal", str, True, "the ideal J"),
    ("--ambient", str, False, "ideal defining the ambient quotient ring"),
)

# subcommand: (help, options, handler), in the order ``mixmult --help`` lists
# them; an option is (flag, type, required, help), and type bool is a switch
_SUBCOMMANDS = {
    "gb": ("reduced degrevlex Groebner basis", _IDEAL, _cmd_gb),
    "hilbert": ("series numerator, polynomial, table", _IDEAL, _cmd_hilbert),
    "bigraded-report": ("degree data of the Hilbert polynomial", _IDEAL,
                        _cmd_bigraded_report),
    "bigraded-e": ("mixed multiplicities of a bigraded algebra", _IDEAL + (
        ("--i", int, False, "row of one cell, read by the positivity criterion"),
        ("--j", int, False, "column of that cell"),
        ("--verify", bool, False,
         "recompute every top-diagonal cell of the table by the criterion"),
    ), _cmd_bigraded_e),
    "ideal-mixed": ("mixed multiplicities e_i(m|J) via saturation chains", _MIXED,
                    _cmd_mixed),
    "rees-mult": ("multiplicity of the Rees algebra", _MIXED, _cmd_mixed),
    "diagonal-degree": ("degree of the diagonal embedding", _MIXED, _cmd_mixed),
    "sv": ("intersection cycle degrees on the ruled join", _FILE + _CONFIG + (
        ("--x", str, True, "ideal of the first subscheme"),
        ("--y", str, True, "ideal of the second subscheme"),
    ), _cmd_sv),
    "selftest": ("run the fixture and property suites", _CONFIG, _cmd_selftest),
}

_HELP = ("-h", "--help")


class _Help(Exception):
    """``-h`` or ``--help`` was read: print the text and exit 0."""


def _help_text(name: Optional[str]) -> str:
    """``mixmult --help``, or with ``name`` that command's help, from
    ``_SUBCOMMANDS``."""
    import textwrap  # only help text needs it

    if name is None:
        usage, text = "mixmult <command> [options]", (
            "exact bigraded Hilbert polynomials, mixed multiplicities, and "
            "intersection-cycle degrees")
        heading, rows = "commands:", [(cmd, h) for cmd, (h, _, _) in _SUBCOMMANDS.items()]
        footer = ["", "Run mixmult <command> --help for the options of a command."]
    else:
        text, options, _ = _SUBCOMMANDS[name]
        heading, rows, footer = "options:", [("-h, --help", "show this help message and exit")], []
        usage = f"mixmult {name} [-h]"
        for flag, kind, required, helptext in options:
            form = flag if kind is bool else f"{flag} {flag[2:].upper().replace('-', '_')}"
            usage += f" {form}" if required else f" [{form}]"
            rows.append((form, helptext))
    width = max(len(form) for form, _ in rows) + 4

    def wrap(text: str, first: str = "", rest: str = "") -> list[str]:
        return textwrap.wrap(text, 79, initial_indent=first, subsequent_indent=rest,
                             break_on_hyphens=False)

    lines = wrap(usage, "usage: ", " " * 7) + ["", *wrap(text), "", heading]
    for form, helptext in rows:
        lines += wrap(helptext, f"  {form}".ljust(width), " " * width)
    return "\n".join(lines + footer)


def _option(token: str, flags: tuple) -> Optional[tuple]:
    """How ``token`` reads among ``flags``, as argparse reads it: None for a
    value, else (flag, value after ``=`` or None), with flag None for an
    unknown option. A flag matches exactly, or by a unique prefix of two
    dashes; a token that looks like a negative number, or holds a space,
    is a value."""
    if token in flags:
        return token, None
    if token[:1] != "-" or token == "-":
        return None
    head, eq, value = token.partition("=")
    if eq and head in flags:
        return head, value
    if token[1] == "-":
        hits = [f for f in flags if f.startswith(head)]
        if len(hits) > 1:
            raise InputError(f"ambiguous option: {token} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    whole, dot, fraction = token[1:].partition(".")
    if dot:
        negative = fraction.isdecimal() and (not whole or whole.isdecimal())
    else:
        negative = whole.isdecimal()
    return None if negative or " " in token else (None, None)


def _read_argv(argv: list[str]):
    """The subcommand's options from ``argv``, as argparse read them: a
    namespace with ``command`` and one attribute per option of that
    command (None, or False for a switch, when not given; the last value
    when repeated). Raises ``InputError`` with argparse's wording on a
    usage error and ``_Help`` on ``-h`` or ``--help``."""
    if not argv:
        raise InputError("the following arguments are required: command")
    name, rest = argv[0], argv[1:]
    if name == "-h" or name.startswith("--h") and "--help".startswith(name):
        raise _Help(_help_text(None))
    if name not in _SUBCOMMANDS:
        choices = ", ".join(map(repr, _SUBCOMMANDS))
        raise InputError(f"argument command: invalid choice: {name!r} "
                         f"(choose from {choices})")
    options = {flag: (kind, required) for flag, kind, required, _ in _SUBCOMMANDS[name][1]}
    # "--" is no option's value, and every token after it is a value
    sep = rest.index("--") if "--" in rest else len(rest)
    reads = [_option(t, _HELP + tuple(options)) for t in rest[:sep]]
    reads += [(None, None)] + [None] * (len(rest) - sep - 1)
    values = {flag: False if kind is bool else None for flag, (kind, _) in options.items()}
    extras: list = []
    i = 0
    while i < len(rest):
        flag, value = reads[i] or (None, None)
        i += 1
        if flag is None:  # a value no option took, or an unknown option
            extras.append(rest[i - 1])
            continue
        kind = bool if flag in _HELP else options[flag][0]
        label = "-h/--help" if flag in _HELP else flag
        if value is None and kind is not bool:
            if i == len(rest) or reads[i] is not None:
                raise InputError(f"argument {label}: expected one argument")
            value = rest[i]
            i += 1
        elif value is not None and kind is bool:
            raise InputError(f"argument {label}: ignored explicit argument {value!r}")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise InputError(f"argument {label}: invalid int value: {value!r}") from None
        if flag in _HELP:
            raise _Help(_help_text(name))
        values[flag] = True if kind is bool else value
    missing = [flag for flag, (_, required) in options.items()
               if required and values[flag] is None]
    if missing:
        raise InputError("the following arguments are required: " + ", ".join(missing))
    if extras:
        raise InputError("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(command=name,
                           **{flag[2:].replace("-", "_"): v for flag, v in values.items()})


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            args = _read_argv(argv)
            config = load_config(args.seed, args.prime, args.max_retries)
            doc = _SUBCOMMANDS[args.command][2](args, config)
        except _Help as text:
            doc = str(text)
        print(doc)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader went away: say nothing, and let the exit flush hit devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _SelftestFailed as exc:
        print(exc.doc)
        print("selftest reported failures", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GenericityExhausted as exc:
        print(f"genericity exhausted: {exc}", file=sys.stderr)
        return 3
    except MathInvariantError as exc:
        print(f"mathematical assertion failed: {exc}", file=sys.stderr)
        return 2
    except MixmultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug: keep the traceback, but exit with a code of its own
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
