"""Command-line interface: problem files in, one JSON document out.

Subcommands: gb, hilbert, bigraded-report, bigraded-e, ideal-mixed,
rees-mult, diagonal-degree, sv, selftest. Every integer in the output is
serialized as decimal text so arbitrarily large values survive any JSON
consumer. Exit codes: 0 success, 1 usage or parse error, 2 mathematical
assertion failure, 3 genericity exhausted, 4 internal error (any other
exception: its traceback, then one ``internal error:`` line, on stderr). A
closed stdout exits 1 and prints nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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


def _sv_args(p):
    _common(p)
    p.add_argument("--x", required=True, help="ideal of the first subscheme")
    p.add_argument("--y", required=True, help="ideal of the second subscheme")


# subcommand: (help, arguments, handler), in the order ``mixmult --help``
# lists them
_SUBCOMMANDS = {
    "gb": ("reduced degrevlex Groebner basis", _ideal_args, _cmd_gb),
    "hilbert": ("series numerator, polynomial, table", _ideal_args, _cmd_hilbert),
    "bigraded-report": ("degree data of the Hilbert polynomial", _ideal_args,
                        _cmd_bigraded_report),
    "bigraded-e": ("mixed multiplicities of a bigraded algebra", _bigraded_e_args,
                   _cmd_bigraded_e),
    "ideal-mixed": ("mixed multiplicities e_i(m|J) via saturation chains", _mixed_args,
                    _cmd_mixed),
    "rees-mult": ("multiplicity of the Rees algebra", _mixed_args, _cmd_mixed),
    "diagonal-degree": ("degree of the diagonal embedding", _mixed_args, _cmd_mixed),
    "sv": ("intersection cycle degrees on the ruled join", _sv_args, _cmd_sv),
    "selftest": ("run the fixture and property suites",
                 lambda p: _common(p, needs_file=False), _cmd_selftest),
}


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI parser; with ``only``, one that knows just that subcommand,
    which parses its arguments as the full parser does at a fraction of the
    set-up cost."""
    parser = _Parser(prog="mixmult",
                     description="exact bigraded Hilbert polynomials, mixed "
                                 "multiplicities, and intersection-cycle degrees")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, arguments, _) in _SUBCOMMANDS.items():
        if only is None or name == only:
            arguments(sub.add_parser(name, help=helptext))
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
        config = load_config(args.seed, args.prime, args.max_retries)
        print(_SUBCOMMANDS[args.command][2](args, config))
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
