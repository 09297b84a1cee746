"""Run one mixmult CLI command in this fresh interpreter and record its timing.

Usage: python3 child.py <record.json> <trace 0|1> <cli argument>...

The command's stdout and stderr are the CLI's own. The record file gets the
monotonic clock reading taken right after ``import mixmult.cli`` (the parent
subtracts its spawn time to get the set-up time), the wall and CPU time of
``mixmult.cli.main`` and its exit code, the process's peak resident set, the
CPU time of a fixed calibration kernel run after the command, and the
per-layer trace when tracing.
Only ``sys`` and ``time`` are imported before mixmult, so the set-up
time is the interpreter's and mixmult's own.
"""

import sys
import time


def _cpu() -> float:
    """User plus system CPU time of this process and of any children it reaped."""
    import resource

    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_kb():
    """High-water resident set of this process image, in KiB.

    Read from /proc rather than getrusage: on Linux, exec folds the resident
    set of the image it replaces (a copy of the parent benchmark process)
    into ru_maxrss, so getrusage would report the parent's size.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _calibration() -> float:
    """CPU time of a fixed pure-Python kernel of the kind of work mixmult
    does (tuple keys, dict updates, arithmetic mod p), run right after the
    command in the same process; it tracks the speed of the core."""
    start = time.process_time()
    acc: dict = {}
    for i in range(150000):
        key = (i % 17, i % 13, i % 7)
        acc[key] = (acc.get(key, 0) * 31 + i) % 32003
    return time.process_time() - start


def main() -> int:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[3:]
    import mixmult.cli
    imported = time.monotonic()
    tracer = None
    if trace:
        import layertrace  # sits beside this file, first on sys.path
        tracer = layertrace.Tracer()
        tracer.install()
    start, cpu_start = time.perf_counter(), _cpu()
    try:
        rc = mixmult.cli.main(argv)
    finally:
        wall, cpu = time.perf_counter() - start, _cpu() - cpu_start
        sys.stdout.flush()
    record = {"imported": imported, "wall_s": wall, "cpu_s": cpu, "rc": rc,
              "module": mixmult.cli.__file__, "peak_rss_kb": _peak_rss_kb(),
              "calibration_s": _calibration()}
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.summary(wall)
    import json
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
