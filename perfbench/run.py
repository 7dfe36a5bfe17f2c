#!/usr/bin/env python3
"""Hanayo benchmark: build from source, run one workload, print its metrics.

Run from the repository root:

  python3 perfbench/run.py --workload train-wide --seed 1 --seconds 10 --trace 0
      One run. The last stdout line is the result JSON
      ({"correct", "attempted", "failed", "metrics"}); --trace 0 gives the
      end-to-end metrics, --trace 1 the per-layer ones plus a Chrome trace
      under .bench_build/traces/. Exits non-zero when the correctness gate
      fails or the program cannot be built.

  python3 perfbench/run.py --steadiness 10 [--workloads a,b] [--save FILE]
      Runs each workload N times (seeds 1..N) and prints every end-to-end
      metric's median, quartiles and spread against its bound, naming the
      metrics that do not settle. --save keeps the result set with its
      host/build stamp.

  python3 perfbench/run.py --compare BEFORE.json AFTER.json
      Compares two saved result sets; refuses when their stamps differ in
      anything but the commit.

  python3 perfbench/run.py --test
      Builds and runs the benchmark's own tests.

The library is built by perfbench/CMakeLists.txt exactly as the default
tier-1 build compiles it (Release, no -march=native), under .bench_build/.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(targets=("perfbench",)):
    """Configures (once) and builds; exits 2 with the log tail on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: library sources not found at " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", *targets])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                sys.exit("perfbench: build failed (" + " ".join(cmd) + ")")


def git_commit():
    # The ceiling keeps git from adopting a repository that merely encloses
    # an exported (non-git) checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_once(workload, seed, seconds, trace, commit, echo):
    """Runs the binary; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, lines


def parse_result(lines):
    """(result dict, stamp dict, host steal %) from a run's stdout; None
    for whatever is missing."""
    result = stamp = steal = None
    for line in lines:
        if line.startswith("stamp: "):
            stamp = json.loads(line[len("stamp: "):])
        elif line.startswith("host steal: "):
            steal = float(line.split()[2].rstrip("%"))
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return result, stamp, steal


def undeclared(result, spec, trace):
    """Emitted metric names that BENCHMARK.json does not declare for the
    mode, plus declared ones that are missing."""
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = set(result.get("metrics", {}))
    bad = sorted(n for n in emitted if n not in declared or not NAME_RE.match(n))
    return bad + sorted("missing:" + n for n in declared - emitted)


def comparable(a, b):
    """Stamp fields that differ, ignoring the commit."""
    keys = (set(a) | set(b)) - {"commit"}
    return sorted(k for k in keys if a.get(k) != b.get(k))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args, spec):
    build()
    commit = git_commit()
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    saved = {"stamp": None, "seconds": seconds, "runs": {}}
    unsettled = []
    for wl in names:
        runs = []
        for seed in range(1, args.steadiness + 1):
            code, lines = run_once(wl, seed, seconds, 0, commit, echo=False)
            result, stamp, steal = parse_result(lines)
            if code != 0 or result is None:
                sys.exit("perfbench: %s seed %d failed (exit %d)" % (wl, seed, code))
            if saved["stamp"] is None:
                saved["stamp"] = stamp
            elif comparable(saved["stamp"], stamp):
                sys.exit("perfbench: host/build stamp changed during the runs")
            runs.append({"seed": seed, "result": result, "steal_pct": steal})
            print("  %s seed %d done" % (wl, seed), file=sys.stderr)
        saved["runs"][wl] = runs
        print("\n%s (%d runs, %g s each; host steal %% per run: %s)" %
              (wl, len(runs), seconds,
               " ".join("%.1f" % (r["steal_pct"] or 0) for r in runs)))
        print("  %-16s %12s %12s %12s %8s %7s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for m in spec["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > m["bound"]:
                flag = "UNSETTLED"
            elif spread > m["bound"] / 3:
                flag = "over bound/3"
            if flag:
                unsettled.append("%s %s (%s)" % (wl, m["name"], flag))
            print("  %-16s %12.5g %12.5g %12.5g %8.4f %7.3f %s" %
                  (m["name"], q1, med, q3, spread, m["bound"], flag))
    print("\nstamp: " + json.dumps(saved["stamp"]))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    if unsettled:
        print("not settled: " + "; ".join(unsettled))
    else:
        print("every end-to-end metric settled within bound/3")


def compare(paths, spec):
    with open(paths[0]) as f:
        a = json.load(f)
    with open(paths[1]) as f:
        b = json.load(f)
    diff = comparable(a["stamp"], b["stamp"])
    if diff:
        sys.exit("perfbench: refusing to compare: stamps differ in " + ", ".join(diff))
    worse_any = False
    for wl in sorted(set(a["runs"]) & set(b["runs"])):
        print("\n%s" % wl)
        for m in spec["end_to_end"]:
            va = [r["result"]["metrics"][m["name"]]["value"] for r in a["runs"][wl]]
            vb = [r["result"]["metrics"][m["name"]]["value"] for r in b["runs"][wl]]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else 0.0
            worse = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            worse_any |= worse
            print("  %-16s %12.5g -> %12.5g %+8.2f%% (bound %.0f%%)%s" %
                  (m["name"], ma, mb, 100 * change, 100 * m["bound"],
                   "  WORSE" if worse else ""))
    sys.exit(1 if worse_any else 0)


def self_test():
    build(("perfbench", "perfbench_tests"))
    code = subprocess.call([os.path.join(BUILD, "perfbench_tests")])
    code |= subprocess.call([sys.executable, "-m", "unittest", "discover", "-s",
                             os.path.join(HERE, "tests"), "-p", "test_*.py"])
    sys.exit(1 if code else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, metavar="N")
    p.add_argument("--workloads", help="comma-separated subset for --steadiness")
    p.add_argument("--save", help="write the --steadiness result set here")
    p.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    p.add_argument("--test", action="store_true")
    args = p.parse_args()
    spec = load_spec()
    if args.test:
        self_test()
    if args.compare:
        compare(args.compare, spec)
    if args.steadiness:
        steadiness(args, spec)
        return
    if not args.workload:
        p.error("--workload is required")
    build()
    code, lines = run_once(args.workload, args.seed,
                           args.seconds or spec["run_seconds"], args.trace,
                           git_commit(), echo=True)
    result = parse_result(lines)[0]
    if result is None:
        sys.exit(code or 3)
    bad = undeclared(result, spec, args.trace)
    if bad:
        sys.exit("perfbench: metrics not as declared in BENCHMARK.json: " + ", ".join(bad))
    sys.exit(code)


if __name__ == "__main__":
    main()
