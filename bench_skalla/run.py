#!/usr/bin/env python3
"""Builds and runs bench_skalla, the Skalla benchmark (see README.md here).

Run from the root of a checkout:

  python3 bench_skalla/run.py --workload olap_highcard --seed 1 --seconds 15 --trace 0
      one run of one workload; the last line of stdout is its JSON result
  python3 bench_skalla/run.py --seed 1 [--seconds S] [--trace 0|1] [--append FILE]
      every workload, each in its own process; --append adds each result to
      FILE as one JSON line
  python3 bench_skalla/run.py --quick [--binary PATH]
      smoke test: the self-test, then every workload shrunken, untraced and
      traced, with every correctness check on and no timing gates; fails if
      the printed metric names differ from BENCHMARK.json
  python3 bench_skalla/run.py --compare A B
      median and quartiles of each metric in two files written by --append,
      with a verdict against the bounds in BENCHMARK.json

The binary is built with CMake into $CARGO_TARGET_DIR (default .bench_build);
traced runs write trace_<workload>.json beside the binary.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the binary; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", out, "--target", "bench_skalla",
             "-j", str(os.cpu_count() or 1)],
            check=True, stdout=sys.stderr)
    return os.path.join(out, "bench_skalla")


def workloads(binary):
    listed = subprocess.run([binary, "--list"], check=True,
                            capture_output=True, text=True).stdout
    return listed.split()


def run_one(binary, workload, seed, seconds, trace, quick=False, echo=True):
    """Runs one workload; returns (exit code, result dict or None, provenance)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.dirname(os.path.abspath(binary))]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result, provenance = None, None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    for line in lines:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
    return proc.returncode, result, provenance


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def quick(binary):
    bench = load_benchmark()
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    failures = []
    if subprocess.run([binary, "--selftest"]).returncode != 0:
        failures.append("selftest failed")
    names = workloads(binary)
    if sorted(names) != sorted(w["name"] for w in bench["workloads"]):
        failures.append("workloads differ from BENCHMARK.json: %s" % names)
    for workload in names:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            code, result, _ = run_one(binary, workload, 1, 1, trace,
                                      quick=True, echo=False)
            tag = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None:
                failures.append("%s: exit code %d" % (tag, code))
                continue
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s: correct=%s failed=%d" % (
                    tag, result["correct"], result["failed"]))
            printed = set(result["metrics"])
            if printed - expected:
                failures.append("%s: not in BENCHMARK.json: %s" % (
                    tag, sorted(printed - expected)))
            if expected - printed:
                failures.append("%s: never printed: %s" % (
                    tag, sorted(expected - printed)))
            print("%-28s %s (%d metrics)" % (tag, "ok" if result["correct"]
                                               else "WRONG", len(printed)))
    for f in failures:
        print("FAIL: " + f)
    print("quick: %s" % ("passed" if not failures else "FAILED"))
    return 0 if not failures else 1


def read_runs(path):
    """{(workload, trace): [metrics dict, ...]} from an --append file."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            runs.setdefault(key, []).append(rec["result"]["metrics"])
    return runs


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(spec, a, b):
    """ok, regressed or unresolved for B against A; '-' without a bound.

    B regresses when its median is worse than A's by more than the bound,
    or, for a metric that repeats exactly within each side (a count such as
    bytes_per_query at one seed), when it is worse at all. It is unresolved
    when either side's spread exceeds the bound, unless every run of B beats
    every run of A."""
    bound = spec.get("bound")
    if bound is None:
        return "-"
    if min(a) == max(a) and min(b) == max(b):
        # A count that repeats exactly on each side: any worsening is real.
        worse = b[0] > a[0] if spec["better"] == "lower" else b[0] < a[0]
        return "regressed" if worse else "ok"
    (ma, qa1, qa3), (mb, qb1, qb3) = summary(a), summary(b)
    spread = max((qa3 - qa1) / ma if ma else 0.0, (qb3 - qb1) / mb if mb else 0.0)
    if spread > bound:
        # Too noisy to judge, unless every run of B beats every run of A.
        better_all = (max(b) < min(a) if spec["better"] == "lower"
                      else min(b) > max(a))
        return "ok" if better_all else "unresolved"
    if ma == 0:
        return "ok" if mb == 0 else "regressed"
    change = (mb - ma) / ma
    worse = change if spec["better"] == "lower" else -change
    return "regressed" if worse > bound else "ok"


def compare(path_a, path_b):
    bench = load_benchmark()
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    runs_a, runs_b = read_runs(path_a), read_runs(path_b)
    print("%-13s %-22s %5s %29s %29s %8s %5s  %s" % (
        "workload", "metric", "bound", "A q1 / median / q3",
        "B q1 / median / q3", "B vs A", "n", "verdict"))
    problems = 0
    for key in sorted(set(runs_a) & set(runs_b)):
        workload, _ = key
        for name in sorted(runs_a[key][0]):
            spec = specs.get(name)
            if spec is None:
                continue
            a = [r[name]["value"] for r in runs_a[key] if name in r]
            b = [r[name]["value"] for r in runs_b[key] if name in r]
            (ma, qa1, qa3), (mb, qb1, qb3) = summary(a), summary(b)
            change = (mb - ma) / ma if ma else 0.0
            v = verdict(spec, a, b)
            if v in ("regressed", "unresolved"):
                problems += 1
            bound = spec.get("bound")
            print("%-13s %-22s %5s %9.4g %9.4g %9.4g %9.4g %9.4g %9.4g %+7.2f%% %2d/%-2d  %s" % (
                workload, name, "-" if bound is None else "%.2f" % bound,
                qa1, ma, qa3, qb1, mb, qb3, 100 * change, len(a), len(b), v))
    print("compare: %s" % ("all ok" if problems == 0 else
                           "%d metric(s) regressed or unresolved" % problems))
    return 0 if problems == 0 else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append", metavar="FILE")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--binary", help="use this binary instead of building")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    try:
        binary = args.binary or build()
    except subprocess.CalledProcessError as e:
        print("bench_skalla: build failed: %s" % e, file=sys.stderr)
        return 2
    if args.quick:
        return quick(binary)
    if args.seed is None:
        parser.error("--seed is required")
    seconds = args.seconds or load_benchmark()["run_seconds"]

    if args.workload:
        targets = [args.workload]
    else:
        targets = workloads(binary)
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in targets:
        code, result, provenance = run_one(binary, workload, args.seed,
                                           seconds, args.trace)
        if result is None or code not in (0, 1):
            print("bench_skalla: %s produced no result (exit %d)" %
                  (workload, code), file=sys.stderr)
            return code or 2
        status = status or code
        if args.append:
            with open(args.append, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": args.seed,
                                    "trace": args.trace,
                                    "provenance": provenance,
                                    "result": result}) + "\n")
        if len(targets) > 1:
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][workload + "." + name] = metric
    if len(targets) > 1:
        print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
