"""mixmult benchmark: CLI workloads, end-to-end metrics, per-layer trace.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload series|bigraded|chain|all \\
        --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: a fixed list of CLI commands
on problem files generated from ``--seed``, each run in a fresh interpreter
the way a shell runs ``mixmult``, one after the other. ``--seconds`` is the
run's time budget: the list is run ``--seconds // NOMINAL_PASS_S`` times
(at least once), each pass with fresh program and hash seeds, and a
command's time is its median over the passes. Outputs are checked against
references that do not come from mixmult (see checks.py), after the
commands have run.

With ``--trace 0`` the last line reports the end-to-end metrics: set-up time
(median over every command's process), time to all answers, slowest command
and peak resident memory. With ``--trace 1`` one more pass runs with the
per-layer wrappers of layertrace.py installed, and the last line reports
the per-layer metrics instead, plus the tracing overhead. ``attempted`` and
``failed`` count command executions; their ratio is the fail ratio.

Generated files, the sympy reference cache and the trace spans go under
``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import statistics
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBLEMS = os.path.join(ROOT, "problems")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
CHILD = os.path.join(HERE, "child.py")
COMMAND_TIMEOUT_S = 150.0

sys.path.insert(0, HERE)
import checks as C  # noqa: E402
import families as F  # noqa: E402

WORKLOADS = ("series", "bigraded", "chain")
# Budget charged for one untraced pass of each workload: about its wall time
# at the commit that defined the benchmark (2-core x86-64 VM, Python 3.11),
# plus, for series, the 4-6 s its reference checks and sympy import take. A
# run makes --seconds divided by this many passes, at least one, so every
# commit measured with the same --seconds gets the same number of passes
# whatever its speed.
NOMINAL_PASS_S = {"series": 20.0, "bigraded": 15.0, "chain": 30.0}
# CPU time of child._calibration() on that machine in its usual state. The
# command times are rescaled to a core on which the kernel takes this long.
CALIBRATION_REF_S = 0.07


@dataclass
class Command:
    label: str
    argv: list[str]
    check: Callable[[dict], list[str]]
    draw: int = 0  # seeds the program's --seed and PYTHONHASHSEED of each pass
    times: list[float] = field(default_factory=list)  # CPU s per pass
    walls: list[float] = field(default_factory=list)  # wall s per pass
    stdout: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def seeds(self, pass_index: int) -> tuple[int, int]:
        """(--seed, PYTHONHASHSEED) of this command in the given pass: fresh
        randomness in every pass, so the median over passes averages it."""
        rng = random.Random(f"{self.draw}:{pass_index}")
        return rng.randrange(1 << 16), rng.randrange(1 << 32)

    @property
    def is_cell_query(self) -> bool:
        return self.argv[0] == "bigraded-e" and "--i" in self.argv


def _ints(values) -> list[int]:
    return [int(v) for v in values]


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# -- workload construction -------------------------------------------------------


class Builder:
    """Writes generated problem files and collects the workload's commands."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.dir = os.path.join(WORK, f"{workload}-{seed}")
        self.cache = os.path.join(WORK, "reference-cache")
        os.makedirs(self.dir, exist_ok=True)
        self.commands: list[Command] = []
        self.texts: dict[str, str] = {}

    def file(self, name: str, text: str) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        self.texts[path] = text
        return path

    def shipped(self, name: str) -> str:
        path = os.path.join(PROBLEMS, name)
        with open(path) as fh:
            self.texts[path] = fh.read()
        return path

    def add(self, label: str, argv: list[str], check: Callable[[dict], list[str]]):
        self.commands.append(Command(label, argv, check, draw=self.rng.randrange(1 << 32)))

    # -- references ----------------------------------------------------------

    def reference_basis(self, path: str, ideal: str) -> list[dict]:
        text = self.texts[path]
        ring, gens = C.ideal_line(text, ideal)
        names = C.ring_names(text, ring)
        polys = [C.parse_poly(g, names) for g in gens]
        if all(len(p) == 1 for p in polys):
            # a monomial ideal is its own basis once made minimal
            return [{e: 1} for e in C.minimal_monomials(next(iter(p)) for p in polys)]
        return C.sympy_basis(text, ideal, self.cache)

    # -- command kinds ---------------------------------------------------------

    def gb(self, label: str, path: str, ideal: str):
        text = self.texts[path]
        names = C.ring_names(text, C.ideal_line(text, ideal)[0])
        want = C.basis_key(self.reference_basis(path, ideal))

        def check(result):
            got = C.basis_key(C.parse_poly(g, names) for g in result["basis"])
            return [] if got == want else ["basis differs from the reference basis"]

        self.add(label, ["gb", "--file", path, "--ideal", ideal], check)

    def hilbert(self, label: str, path: str, ideal: str, numerator=None, diagonal=None):
        """Checks the numerator (from the reference basis unless a closed form
        is given), the dimension and multiplicity it implies, and the top
        diagonal where a closed form is known."""
        text = self.texts[path]
        bidegs = C.ring_bidegrees(text, C.ideal_line(text, ideal)[0])
        if numerator is None:
            lead = C.leading_exponents(self.reference_basis(path, ideal))
            numerator = C.monomial_numerator(lead, bidegs)
        dim, mult = C.dim_and_multiplicity(numerator, len(bidegs))

        def check(result):
            problems: list[str] = []
            _expect(problems, "numerator", C.numerator_of(result), numerator)
            _expect(problems, "dimension", int(result["dimension"]), dim)
            _expect(problems, "multiplicity", int(result["multiplicity"]), mult)
            if diagonal is not None:
                _expect(problems, "diagonal", _ints(result["table"]["diagonal"]), diagonal)
            return problems

        self.add(label, ["hilbert", "--file", path, "--ideal", ideal], check)

    def e_cell(self, label: str, path: str, i: int, j: int, value: int):
        def check(result):
            problems: list[str] = []
            _expect(problems, "e", int(result["e"]), value)
            _expect(problems, "positive", result["positive"], value > 0)
            return problems

        self.add(label, ["bigraded-e", "--file", path, "--ideal", "I",
                         "--i", str(i), "--j", str(j)], check)

    def e_table(self, label: str, path: str, diagonal: list[int], verify: bool):
        def check(result):
            problems: list[str] = []
            _expect(problems, "diagonal", _ints(result["table"]["diagonal"]), diagonal)
            _expect(problems, "verified", result["verified"], verify)
            return problems

        argv = ["bigraded-e", "--file", path, "--ideal", "I"]
        self.add(label, argv + (["--verify"] if verify else []), check)

    def report(self, label: str, path: str, **want):
        def check(result):
            problems: list[str] = []
            for key, value in want.items():
                got = result[key]
                _expect(problems, key, got if isinstance(got, bool) or got is None
                        else int(got), value)
            return problems

        self.add(label, ["bigraded-report", "--file", path, "--ideal", "I"], check)

    def mixed(self, label: str, path: str, e: list[int], height: int,
              ambient: str | None = None, nvars: int | None = None):
        """ideal-mixed, rees-mult and (in a polynomial ring) diagonal-degree."""
        extra = ["--ambient", ambient] if ambient else []

        def check_mixed(result):
            problems: list[str] = []
            _expect(problems, "e", _ints(result["e"]), e)
            _expect(problems, "spread", int(result["spread"]), len(e))
            _expect(problems, "height", int(result["height"]), height)
            _expect(problems, "rho", int(result["rho"]), max(i for i, v in enumerate(e) if v))
            return problems

        def check_rees(result):
            problems: list[str] = []
            _expect(problems, "rees_multiplicity", int(result["rees_multiplicity"]), sum(e))
            _expect(problems, "e", _ints(result["e"]), e)
            return problems

        def check_diag(result):
            problems: list[str] = []
            _expect(problems, "diagonal_degree", int(result["diagonal_degree"]),
                    C.diagonal_degree(e, nvars - 1))
            return problems

        base = ["--file", path, "--ideal", "J"] + extra
        self.add(f"ideal-mixed {label}", ["ideal-mixed"] + base, check_mixed)
        self.add(f"rees-mult {label}", ["rees-mult"] + base, check_rees)
        if nvars is not None:
            self.add(f"diagonal-degree {label}", ["diagonal-degree"] + base, check_diag)

    def sv(self, label: str, path: str, bezout: int):
        def check(result):
            problems: list[str] = []
            degrees = _ints(result["degrees"])
            _expect(problems, "sum", int(result["sum"]), bezout)
            _expect(problems, "sum of degrees", sum(degrees), bezout)
            if min(degrees) < 0:
                problems.append(f"negative cycle degree in {degrees}")
            return problems

        self.add(f"sv {label}", ["sv", "--file", path, "--x", "X", "--y", "Y"], check)


def build(workload: str, seed: int) -> list[Command]:
    b = Builder(workload, seed)
    rng = b.rng
    if workload == "series":
        # one large degrevlex basis per command, then the Hilbert recursion
        ci = b.file("ci11_5x5.mix", F.bihomogeneous_forms(rng, 5, 5, (1, 1), 5))
        b.hilbert("hilbert (1,1)^5 in 5+5", ci, "I",
                  numerator=C.ci11_numerator(5), diagonal=C.ci11_diagonal(5, 5))
        # gb runs on the 4+4 member: sympy needs 26 s for the 5+5 basis
        small = b.file("ci11_4x4.mix", F.bihomogeneous_forms(rng, 4, 4, (1, 1), 4))
        b.gb("gb (1,1)^4 in 4+4", small, "I")
        f21 = b.file("f21_3x3.mix", F.bihomogeneous_forms(rng, 3, 3, (2, 1), 5))
        b.hilbert("hilbert (2,1)^5 in 3+3", f21, "I", numerator=C.F21_NUMERATOR)
        # six ideals of 40 generators, not two of 60: the cost of one ideal
        # varies by half with its random shape, and six average that out
        for k in range(1, 7):
            mono = b.file(f"mono{k}_6x6.mix", F.monomial_ideal(rng, 6, 6, 40))
            b.hilbert(f"hilbert monomial#{k} 40 gens in 6+6", mono, "I")
        tc = b.shipped("three_component.mix")
        b.gb("gb three_component", tc, "I")
        b.hilbert("hilbert three_component", tc, "I", diagonal=[0, 0, 1, 0, 0])
        cubic = b.shipped("twisted_cubic.mix")
        b.gb("gb twisted_cubic", cubic, "J")
        b.hilbert("hilbert twisted_cubic", cubic, "J")
        b.hilbert("hilbert mixed_products_vanish", b.shipped("mixed_products_vanish.mix"), "I")
        b.hilbert("hilbert three_points", b.shipped("three_points.mix"), "J")
        b.hilbert("hilbert pair_of_planes", b.shipped("pair_of_planes.mix"), "amb")
    elif workload == "bigraded":
        # many small block-order bases in the Rpp-saturation loop
        tc = b.shipped("three_component.mix")
        b.e_cell("bigraded-e three_component 2,2", tc, 2, 2, 1)
        b.e_table("bigraded-e three_component --verify", tc, C.three_component_diagonal(4), True)
        b.report("bigraded-report three_component", tc, r=4, r1=3, r2=3, p_is_zero=False,
                 dim_total=6, dim_mod_first_kind=4, dim_mod_second_kind=4)
        mpv = b.shipped("mixed_products_vanish.mix")
        b.report("bigraded-report mixed_products_vanish", mpv, r=None, p_is_zero=True,
                 dim_total=3, dim_mod_first_kind=3, dim_mod_second_kind=3)
        b.e_table("bigraded-e mixed_products_vanish", mpv, [], False)
        # The shipped three_component is the family's n = 4 member. The n = 5
        # report is left out: its cost swings from 0.4 s to 4.6 s with the
        # variable order and hash seed alone (see NOTES.md).
        path = b.file("three_component_3.mix", F.three_component(rng, 3))
        b.e_cell("bigraded-e three_component n=3 1,1", path, 1, 1, 1)
        b.e_table("bigraded-e three_component n=3 --verify", path,
                  C.three_component_diagonal(3), True)
        b.report("bigraded-report three_component n=3", path, r=2, r1=2, r2=2,
                 p_is_zero=False, dim_total=4, dim_mod_first_kind=3, dim_mod_second_kind=3)
        for n in (2, 3):
            path = b.file(f"bilinear_{n}.mix", F.bilinear_hypersurface(rng, n))
            b.e_table(f"bigraded-e bilinear n={n} --verify", path, C.bilinear_diagonal(n), True)
            b.e_cell(f"bigraded-e bilinear n={n} {n - 2},{n - 1}", path, n - 2, n - 1, 1)
    elif workload == "chain":
        # saturation by a non-monomial J, Rees elimination, height and nzd search
        for d in (3, 4):
            path = b.file(f"rnc{d}.mix", F.rational_normal_curve(rng, d))
            b.mixed(f"rational normal curve d={d}", path, C.RATIONAL_NORMAL_E[d],
                    height=d - 1, nvars=d + 1)
        b.mixed("twisted_cubic", b.shipped("twisted_cubic.mix"), [1, 2, 1], 2, nvars=4)
        b.mixed("three_points", b.shipped("three_points.mix"), [1, 2, 1], 2, nvars=3)
        b.mixed("pair_of_planes", b.shipped("pair_of_planes.mix"), [1, 0], 1, ambient="amb")
        for dx, dy in ((1, 2), (2, 2), (2, 3), (3, 3)):
            path = b.file(f"join_{dx}{dy}.mix", F.plane_curve_join(rng, dx, dy))
            b.sv(f"plane curves {dx},{dy}", path, dx * dy)
        path = b.file("join_conic_line.mix", F.improper_join(rng, 2, 1, 1))
        b.sv("conic*line against conic*line", path, 9)
        path = b.file("join_conic_conic.mix", F.improper_join(rng, 2, 0, 0))
        b.sv("conic against itself", path, 4)
        b.sv("two_conics", b.shipped("two_conics.mix"), 4)
        b.sv("two_lines", b.shipped("two_lines.mix"), 1)
    else:
        raise ValueError(workload)
    return b.commands


# -- running commands ------------------------------------------------------------


def _child_env(hash_seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MIXMULT_")}
    env["PYTHONPATH"] = SRC
    # hash order decides set iteration inside mixmult, and with it the order
    # of some Groebner computations: fix it per command so a seed repeats
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


@dataclass
class Execution:
    rc: int
    setup_s: float | None
    solve_s: float | None  # CPU time of cli.main
    wall_s: float | None
    maxrss_mb: float
    stdout: str
    stderr: str
    record: dict | None


def execute(argv: list[str], hash_seed: int, trace: bool, tag: str) -> Execution:
    """Run one CLI command in a fresh interpreter and wait for it to end."""
    tag = f"{os.getpid()}-{tag}"
    record_path = os.path.join(WORK, f"record-{tag}.json")
    out_path = os.path.join(WORK, f"stdout-{tag}.txt")
    err_path = os.path.join(WORK, f"stderr-{tag}.txt")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, record_path, "1" if trace else "0", *argv],
            stdout=out, stderr=err, env=_child_env(hash_seed), cwd=ROOT)
        # a blocking wait, so the benchmark takes no CPU while the command runs
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            with contextlib.suppress(ChildProcessError):
                os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    os.remove(out_path)
    os.remove(err_path)
    record = None
    maxrss_kb = usage.ru_maxrss
    if os.path.exists(record_path):
        with open(record_path) as fh:
            record = json.load(fh)
        os.remove(record_path)
        if not os.path.abspath(record["module"]).startswith(SRC + os.sep):
            raise SystemExit(f"mixmult was imported from {record['module']}, not from {SRC}")
        maxrss_kb = record["peak_rss_kb"] or maxrss_kb
    return Execution(
        rc=proc.returncode,
        setup_s=record["imported"] - spawned if record else None,
        solve_s=record["cpu_s"] if record else None,
        wall_s=record["wall_s"] if record else None,
        maxrss_mb=maxrss_kb / 1024.0,
        stdout=stdout, stderr=stderr, record=record)


def run_pass(commands: list[Command], pass_index: int, trace: bool,
             stats: dict) -> list[Execution]:
    runs = []
    for k, cmd in enumerate(commands):
        prog_seed, hash_seed = cmd.seeds(pass_index)
        ex = execute(cmd.argv + ["--seed", str(prog_seed)], hash_seed, trace, str(k))
        stats["attempted"] += 1
        if ex.rc != 0:
            cmd.failures.append(f"exit code {ex.rc}: {ex.stderr.strip()[-300:]}")
            stats["failed"] += 1
        if ex.setup_s is not None:
            stats["setup"].append(ex.setup_s)
            stats["calibration"].append(ex.record["calibration_s"])
        stats["rss"].append(ex.maxrss_mb)
        runs.append(ex)
    return runs


def check_outputs(commands: list[Command], stats: dict) -> None:
    """Check every successful execution's stdout (outside any timed region)."""
    for cmd in commands:
        for stdout in cmd.stdout:
            try:
                doc = json.loads(stdout)
                problems = cmd.check(doc["result"])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                cmd.failures.extend(problems)
                stats["failed"] += 1


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(commands: list[Command], stats: dict) -> dict:
    """setup_s as measured; solve_s and slowest_op_s in reference-core
    seconds: CPU seconds times CALIBRATION_REF_S over the mean time of the
    calibration kernel, which every command's process runs right after the
    command. The shared host's core speed moved by 20 % between runs
    minutes apart; the kernel sees the same core state as the command."""
    if not stats["setup"]:  # no command ran to the end; the run is failed
        return {name: _metric(0.0, unit) for name, unit in
                (("setup_s", "s"), ("solve_s", "s"), ("slowest_op_s", "s"), ("peak_rss_mb", "MB"))}
    scale = CALIBRATION_REF_S / statistics.fmean(stats["calibration"])
    medians = [statistics.median(c.times) for c in commands if c.times]
    return {
        "setup_s": _metric(statistics.median(stats["setup"]), "s"),
        "solve_s": _metric(sum(medians) * scale, "s"),
        "slowest_op_s": _metric(max(medians) * scale, "s"),
        "peak_rss_mb": _metric(max(stats["rss"]), "MB"),
    }


def per_layer(commands: list[Command], traced: list[Execution], untraced_solve: float) -> dict:
    """Sum the traced pass's per-command summaries into per-layer metrics."""
    layers: dict[str, dict] = {}
    counters: dict[str, int] = {}
    absent: set[str] = set()
    cli_self = 0.0
    memo = None
    cell_ops = cell_reports = 0
    for cmd, ex in zip(commands, traced):
        summary = (ex.record or {}).get("trace")
        if summary is None:
            continue
        absent.update(summary["absent"])
        for name, entry in summary["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
        for name, value in summary["counters"].items():
            if name == "groebner.basis_size_max":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
        cli_self += summary["cli.self_s"]
        if summary["hilbert.numerator_memo_entries"] is not None:
            memo = max(memo or 0, summary["hilbert.numerator_memo_entries"])
        if cmd.is_cell_query:
            cell_ops += 1
            cell_reports += summary["layers"].get("bigraded.degrees_report", {}).get("calls", 0)
    metrics: dict[str, dict] = {}
    for name, acc in sorted(layers.items()):
        metrics[f"{name}.calls"] = _metric(acc["calls"], "count")
        metrics[f"{name}.s"] = _metric(acc["s"], "s")
        metrics[f"{name}.self_s"] = _metric(acc["self_s"], "s")
    for name, value in sorted(counters.items()):
        metrics[name] = _metric(value, "count")
    if "bigraded.degrees_report" in layers:
        metrics["bigraded.degrees_report.calls_per_op"] = _metric(
            cell_reports / cell_ops if cell_ops else 0.0, "count/op")
    if memo is not None:
        metrics["hilbert.numerator_memo_entries"] = _metric(memo, "count")
    traced_solve = sum(ex.solve_s for ex in traced if ex.solve_s is not None)
    metrics["bigraded.cell_ops"] = _metric(cell_ops, "count")
    metrics["cli.self_s"] = _metric(cli_self, "s")
    metrics["ops.commands"] = _metric(len(commands), "count")
    metrics["trace.solve_s"] = _metric(traced_solve, "s")  # CPU s, not rescaled
    metrics["trace.overhead_s"] = _metric(traced_solve - untraced_solve, "s")
    if absent:
        print(f"absent at this commit: {', '.join(sorted(absent))}")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    commands = build(workload, seed)
    stats = {"attempted": 0, "failed": 0, "setup": [], "rss": [], "calibration": []}
    # compile mixmult's bytecode once, as an installed package would have it
    execute(["--help"], 0, False, "warmup")
    passes = max(1, int(seconds // NOMINAL_PASS_S[workload]))
    for index in range(passes):
        for cmd, ex in zip(commands, run_pass(commands, index, False, stats)):
            if ex.solve_s is not None:
                cmd.times.append(ex.solve_s)
                cmd.walls.append(ex.wall_s)
            if ex.rc == 0:
                cmd.stdout.append(ex.stdout)
    check_outputs(commands, stats)
    result = {"correct": True, "attempted": stats["attempted"], "failed": stats["failed"]}
    metrics = end_to_end(commands, stats)
    if trace:
        # same seeds as the first pass: the wrappers must leave the program's
        # stdout byte for byte alone
        traced = run_pass(commands, 0, True, stats)
        for cmd, ex in zip(commands, traced):
            if ex.rc == 0 and cmd.stdout and ex.stdout != cmd.stdout[0]:
                cmd.failures.append("stdout differs with the layer wrappers installed")
                stats["failed"] += 1
        result["attempted"], result["failed"] = stats["attempted"], stats["failed"]
        write_spans(workload, seed, commands, traced)
        untraced_cpu = sum(statistics.median(c.times) for c in commands if c.times)
        metrics = per_layer(commands, traced, untraced_cpu)
    for cmd in commands:
        for problem in cmd.failures:
            print(f"FAILED {workload}: {cmd.label}: {problem}", file=sys.stderr)
    result["correct"] = result["failed"] == 0
    result["metrics"] = metrics
    result["passes"] = passes
    result["solve_wall_s"] = sum(statistics.median(c.walls) for c in commands if c.walls)
    result["solve_cpu_s"] = sum(statistics.median(c.times) for c in commands if c.times)
    result["calibration_s"] = statistics.fmean(stats["calibration"] or [0.0])
    return result


def write_spans(workload: str, seed: int, commands: list[Command],
                traced: list[Execution]) -> None:
    """Write the traced pass's spans, one JSON line per command."""
    path = os.path.join(WORK, f"spans-{workload}-{seed}.jsonl")
    with open(path, "w") as fh:
        for cmd, ex in zip(commands, traced):
            summary = (ex.record or {}).get("trace") or {}
            fh.write(json.dumps({"command": cmd.label, "argv": cmd.argv,
                                 "spans": summary.get("spans", [])}) + "\n")


def summary_lines(workload: str, result: dict) -> list[str]:
    lines = [f"{workload}: {result['attempted']} commands in {result['passes']} pass(es), "
             f"fail_ratio {result['failed'] / result['attempted']:.4f} "
             f"({result['failed']} of {result['attempted']}), "
             f"time to all answers as measured {result['solve_wall_s']:.3f} s wall, "
             f"{result['solve_cpu_s']:.3f} s CPU; calibration kernel "
             f"{result['calibration_s']:.5f} s against {CALIBRATION_REF_S} s"]
    for name, m in result["metrics"].items():
        lines.append(f"  {workload:9s} {name:48s} {m['value']:>14.6g} {m['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so a running command is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.exists(os.path.join(SRC, "mixmult", "cli.py")) or not os.path.isdir(PROBLEMS):
        print(f"no mixmult checkout at {ROOT}: src/mixmult/cli.py and problems/ are needed",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for line in summary_lines(name, results[name]):
            print(line)
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
