#!/usr/bin/env python3
"""Builds and runs the microrec benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
perfbench executable (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/; later runs only rebuild what changed. The executable's
stdout is passed through, with a source fingerprint inserted before the
last line, which is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Before printing it, the metric names are checked against BENCHMARK.json:
--trace 0 must report exactly its end_to_end metrics, --trace 1 exactly its
per_layer metrics. Any build failure, crash, timeout or mismatch exits
non-zero without a result line.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("engine-batch", "engine-online", "sim-fleet", "sim-accel")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_jobs():
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, 4))


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return -1


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no microrec sources under %s/src; run from a full checkout"
             % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, BUILD_TIMEOUT_S) != 0:
            fail("configure failed")
    if run_logged(["cmake", "--build", BUILD, "--target", "perfbench",
                   "-j", str(build_jobs())], BUILD_TIMEOUT_S) != 0:
        fail("build failed")


def source_fingerprint():
    """The git commit if the checkout is a repository, and a hash of every
    file under src/ and perfbench/ either way."""
    commit = "unavailable"
    if shutil.which("git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 env=env, capture_output=True, text=True,
                                 timeout=10)
            if out.returncode == 0:
                commit = out.stdout.strip()
        except subprocess.TimeoutExpired:
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def expected_metric_names(trace):
    """Metric names BENCHMARK.json promises for this mode, or None if the
    file is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last line is not a JSON result: %r" % line[:200], 4)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has keys %s" % sorted(result), 4)
    expected = expected_metric_names(trace)
    if expected is not None and sorted(result["metrics"]) != sorted(expected):
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(expected)), 4)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(BUILD, "trace")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S, 3)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("perfbench exited with %d" % proc.returncode, 3)
    check_result(lines[-1], args.trace == 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"source": source_fingerprint()}))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
