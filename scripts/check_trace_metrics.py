#!/usr/bin/env python3
"""Check a traced benchmark run against the metrics BENCHMARK.json declares.

Usage: python3 perfbench/run.py --workload all --seed 42 --seconds 1 --trace 1 \\
           | python3 scripts/check_trace_metrics.py

Reads the run's output on stdin. Exits 1 unless its last JSON line reports
``"correct": true`` and every workload reports exactly the ``per_layer``
metric names of BENCHMARK.json: a traced function that is gone, or a hook
that no longer fits the code, drops metrics from the report.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main() -> int:
    lines = [line for line in sys.stdin.read().splitlines() if line.startswith("{")]
    if not lines:
        print("no benchmark report on stdin", file=sys.stderr)
        return 1
    report = json.loads(lines[-1])
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    problems = [] if report["correct"] else ["the run is not correct"]
    for workload in (w["name"] for w in spec["workloads"]):
        prefix = workload + "."
        names = {k[len(prefix):] for k in report["metrics"] if k.startswith(prefix)}
        if names != declared:
            problems.append(f"{workload}: missing {sorted(declared - names)}, "
                            f"undeclared {sorted(names - declared)}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
