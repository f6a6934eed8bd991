#!/usr/bin/env python3
"""Self-checks of the repository benchmark.  Run from the repository root.

    python3 perfbench/selftest.py steadiness [--runs 10] [--sets 2]
                                   [--workloads solve,serve,kernels]
        Runs each workload --runs times per set, each run with another
        seed, on one build.  For every end-to-end metric it reports the
        spread (first-to-third quartile distance as a share of the
        median, from statistics.quantiles(values, n=4)) against the
        bound in BENCHMARK.json, and with --sets 2 how far the second
        set's median moved from the first's.  Exits 1 when a spread
        or a median move exceeds its bound.

    python3 perfbench/selftest.py checks
        Shows that the output checks bite: a run against a copy of
        perfbench/expected with one wrong value must report
        correct=false, and the benchmark must fail without a result in
        a directory holding only BENCHMARK.json and perfbench/.

Runs go one at a time (the benchmark pins its own threads; parallel
runs would measure each other).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, seed, trace=0, seconds=None, expected=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds or BENCH["run_seconds"]),
           "--trace", str(trace)]
    if expected:
        cmd += ["--expected", expected]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stderr


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steadiness(args):
    bounds = {m["name"]: m for m in BENCH["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        medians = []
        for s in range(args.sets):
            values = {name: [] for name in bounds}
            for r in range(args.runs):
                seed = 1000 * (s + 1) + r
                rc, result, err = run(workload, seed)
                if result is None or not result["correct"]:
                    print("%s seed %d: rc=%d result=%s\n%s"
                          % (workload, seed, rc, result, err[-2000:]))
                    return 1
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
            print("%s set %d (%d runs):" % (workload, s + 1, args.runs))
            for name, m in bounds.items():
                sp = spread(values[name])
                limit = m["bound"]
                bad = sp > limit
                ok = ok and not bad
                print("  %-14s median %12.5g  spread %6.2f%%  bound %5.1f%%%s%s"
                      % (name, statistics.median(values[name]), 100 * sp,
                         100 * limit, "  (> bound/3)" if sp > limit / 3 else "",
                         "  FAIL" if bad else ""))
                print("      " + " ".join("%.5g" % v for v in values[name]))
            medians.append({n: statistics.median(v) for n, v in values.items()})
        for s in range(1, len(medians)):
            print("%s set %d vs set 1:" % (workload, s + 1))
            for name, m in bounds.items():
                a, b = medians[0][name], medians[s][name]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                bad = worse > m["bound"]
                ok = ok and not bad
                print("  %-14s %+6.2f%% worse (bound %4.1f%%)%s"
                      % (name, 100 * worse, 100 * m["bound"],
                         "  FAIL" if bad else ""))
    return 0 if ok else 1


def checks(_args):
    ok = True
    scratch = tempfile.mkdtemp(prefix="selftest-",
                               dir=os.path.join(ROOT, ".bench_build"))
    try:
        wrong = os.path.join(scratch, "expected")
        shutil.copytree(os.path.join(HERE, "expected"), wrong)
        for name, old, new in [("solve_corpus.txt", "corpus/psm/storage 41",
                                "corpus/psm/storage 40"),
                               ("sim_cycles.txt", "stencil5/ov/ultra2 1993476",
                                "stencil5/ov/ultra2 1993477")]:
            path = os.path.join(wrong, name)
            text = open(path).read()
            assert old in text, (name, old)
            open(path, "w").write(text.replace(old, new))
        for workload in ("solve", "kernels"):
            _, good, _ = run(workload, 7, seconds=1)
            _, bad, _ = run(workload, 7, seconds=1, expected=wrong)
            fine = (good and good["correct"] and good["failed"] == 0 and
                    bad and not bad["correct"] and bad["failed"] > 0)
            ok = ok and fine
            print("%-8s right expected: correct=%s; wrong expected: correct=%s "
                  "failed=%s -> %s" % (workload, good and good["correct"],
                                       bad and bad["correct"],
                                       bad and bad["failed"],
                                       "ok" if fine else "FAIL"))

        bare = os.path.join(scratch, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        rc, result, _ = run("solve", 1, seconds=1, cwd=bare)
        fine = rc != 0 and result is None
        ok = ok and fine
        print("bare directory: exit %d, result %s -> %s"
              % (rc, result, "ok" if fine else "FAIL"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    st = sub.add_parser("steadiness")
    st.add_argument("--runs", type=int, default=10)
    st.add_argument("--sets", type=int, default=1)
    st.add_argument("--workloads", default=",".join(
        w["name"] for w in BENCH["workloads"]))
    sub.add_parser("checks")
    args = parser.parse_args()
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    return steadiness(args) if args.command == "steadiness" else checks(args)


if __name__ == "__main__":
    sys.exit(main())
