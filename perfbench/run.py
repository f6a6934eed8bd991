#!/usr/bin/env python3
"""Build and run the repository benchmark (uov_perfbench).

Usage, from the root of a repository checkout:

    python3 perfbench/run.py --workload solve|serve|kernels \
        --seed N --seconds S --trace 0|1 [--expected DIR]

The first run configures and builds perfbench/ (its own CMake project
over ../src) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when the variable is unset; later runs only re-check the build.  Build
output goes to stderr.  The benchmark's stdout ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  --expected points the
output checks at another copy of perfbench/expected (the self-test
uses it to show that a wrong expected value is reported as a failure).

Everything the run writes (build tree, result stores, JIT cache,
compiler temporaries) stays under the build directory; per-run scratch
is removed at exit.  A --trace 1 result carries every per_layer metric
of BENCHMARK.json: a layer the workload bypasses reads 0, which is
itself the evidence that the workload bypasses it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id():
    """`git describe` of the checkout, or "unknown" outside git."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=30)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def with_per_layer_defaults(line):
    """The result line with a 0 for each per_layer metric it lacks."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        per_layer = json.load(f)["per_layer"]
    result = json.loads(line)
    for m in per_layer:
        result["metrics"].setdefault(m["name"],
                                     {"value": 0, "unit": m["unit"]})
    return json.dumps(result)


def build(build_dir):
    """Configure once, then build; returns the benchmark binary path."""
    tree = os.path.join(build_dir, "perfbench")
    log = sys.stderr
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=log, stderr=log, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", tree, "-j", jobs],
                   stdout=log, stderr=log, check=True)
    return os.path.join(tree, "uov_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve", "serve", "kernels"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--expected", default=os.path.join(HERE, "expected"))
    args = parser.parse_args()

    for needed in ("src/core/search.cc", "examples/corpus", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s under %s: run from a repository checkout" % (needed, ROOT))
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as e:
        fail("build failed (%s)" % e)

    work = os.path.join(build_dir, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, TMPDIR=work)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.abspath(args.expected),
           "--work", os.path.join(work, "run"),
           "--git-describe", source_id()]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        last = None
        for line in proc.stdout:
            if last is not None:
                print(last, end="", flush=True)
            last = line
        rc = proc.wait()
        if last is not None:
            if rc == 0 and args.trace:
                last = with_per_layer_defaults(last) + "\n"
            print(last, end="", flush=True)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
