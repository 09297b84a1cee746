#!/usr/bin/env python3
"""Check a traced benchmark run against the metrics BENCHMARK.json declares.

Usage: python3 perfbench/run.py --workload all --seed 42 --seconds 1 --trace 1 \\
           | python3 scripts/check_trace_metrics.py

Reads the run's output on stdin. Its last non-empty line is the report.
Exits 1 unless that line is a JSON object that reports ``"correct": true``,
every workload reports exactly the ``per_layer`` metric names of
BENCHMARK.json, and every metric value is a finite number: a traced function
that is gone, or a hook that no longer fits the code, drops metrics from the
report, and anything printed after the report means the run did not end in
one.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def _finite(value) -> bool:
    """A finite int or float; bools, None, NaN and infinities are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def main() -> int:
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    try:
        report = json.loads(lines[-1]) if lines else None
    except ValueError:
        report = None
    if not isinstance(report, dict) or not isinstance(report.get("metrics"), dict):
        print("the last line on stdin is not a benchmark report", file=sys.stderr)
        return 1
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    problems = [] if report.get("correct") is True else ["the run is not correct"]
    for workload in (w["name"] for w in spec["workloads"]):
        prefix = workload + "."
        names = {k[len(prefix):] for k in report["metrics"] if k.startswith(prefix)}
        if names != declared:
            problems.append(f"{workload}: missing {sorted(declared - names)}, "
                            f"undeclared {sorted(names - declared)}")
    for name, metric in report["metrics"].items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if not _finite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
