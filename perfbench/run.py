#!/usr/bin/env python3
"""Build the benchmark program and run one workload (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The program is built from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), in the
same CMake tree and build type as the minihpx libraries it links. The
last line printed is one JSON object: correct, attempted, failed and the
metrics -- end-to-end with --trace 0, per-layer with --trace 1. An
untraced run is split over PROCESSES processes (see below). A traced
run runs one process untraced and one traced with the same seed and
reports the tracing overhead as tracing.overhead_pct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("saturated", "io")
# The program runs must end within this many seconds of the build.
RUN_TIMEOUT_S = 170
# A run is split over this many processes, one after another, each
# measuring an equal part of --seconds; the run reports each metric's
# mean over them without the lowest and the highest. Processes on a
# shared host differ by a speed factor of their own that moves every
# metric at once, and several processes narrow it where a longer one
# does not.
PROCESSES = 5


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    """The build tree, inside the checkout."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    target = target.resolve()
    if ROOT not in target.parents:
        target = ROOT / ".bench_build"
    return target / "perfbench"


def build():
    """Configures once, then lets the build tool bring the program up to
    date. Returns the program's path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no minihpx sources under {ROOT / 'src'}")
        return None
    tree = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (tree / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(tree), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return None
    program = tree / "perfbench"
    return program if program.is_file() else None


def run_program(program, argv, deadline):
    """Runs the program; returns (exit code, parsed last stdout line)."""
    try:
        done = subprocess.run([str(program)] + argv, stdout=subprocess.PIPE,
                              text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"program did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        return done.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        print(lines[-1])
        return done.returncode, None


def trimmed_mean(values):
    """Mean without the lowest and the highest value."""
    values = sorted(values)
    return statistics.fmean(values[1:-1] if len(values) > 2 else values)


def combine(results):
    """One result from the processes of a run: each metric's trimmed mean
    over them, except the set-up time, which is the first process's (the
    run's one cold set-up)."""
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results
                  if name in r["metrics"]]
        value = m["value"] if name == "setup_s" else trimmed_mean(values)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


# Direction of each end-to-end metric, for the tracing overhead.
HIGHER_IS_BETTER = {"tasks_per_s", "requests_per_s"}


def tracing_overhead(untraced, traced):
    """Per-metric slowdown of the traced run, in percent (positive: the
    traced run was worse)."""
    out = {}
    for name, m in untraced.items():
        if name not in traced or m["value"] == 0 or traced[name]["value"] == 0:
            continue
        a, b = m["value"], traced[name]["value"]
        ratio = a / b if name in HIGHER_IS_BETTER else b / a
        out[name] = 100.0 * (ratio - 1.0)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    program = build()
    if program is None:
        return 1
    out_dir = build_dir().parent / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.selftest:
        return subprocess.run([str(program), "--selftest",
                               f"--out={out_dir}"], cwd=ROOT).returncode

    argv = [f"--workload={args.workload}", f"--seed={args.seed}",
            f"--seconds={args.seconds / PROCESSES}", f"--out={out_dir}"]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not args.trace:
        results = []
        for _ in range(PROCESSES):
            code, result = run_program(program, argv + ["--trace=0"],
                                       deadline)
            if result is None or code != 0:
                if result is not None:
                    print(json.dumps(result))
                return code or 1
            results.append(result)
        print(json.dumps(combine(results)))
        return 0

    # Traced: one process untraced and one traced, each measuring a
    # process's part of --seconds.

    code, untraced = run_program(program, argv + ["--trace=0"], deadline)
    if untraced is None or code != 0:
        if untraced is not None:
            print(json.dumps(untraced))
        return code or 1
    code, traced = run_program(program, argv + ["--trace=1"], deadline)
    if traced is None:
        return 1
    overhead = tracing_overhead(untraced["metrics"], traced.pop("end_to_end"))
    for name, pct in sorted(overhead.items()):
        log(f"tracing overhead {name}: {pct:+.1f} %")
    timed = sorted(v for k, v in overhead.items()
                   if k not in ("setup_s", "peak_rss_mib", "trace_mib"))
    traced["metrics"]["tracing.overhead_pct"] = {
        "value": timed[len(timed) // 2] if timed else 0.0, "unit": "%"}
    with open(out_dir / f"overhead-{args.workload}-{args.seed}.json",
              "w") as f:
        json.dump(overhead, f, indent=2, sort_keys=True)
    result = {
        "correct": untraced["correct"] and traced["correct"],
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "metrics": traced["metrics"],
    }
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
