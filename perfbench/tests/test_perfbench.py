"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

The executable is built (or brought up to date) once, through the same
build step run.py uses.
"""

import json
import os
import re
import subprocess
import sys
import unittest

TESTS = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(TESTS)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (perfbench/run.py)


def setUpModule():
    run.build()


def perfbench(*args):
    return subprocess.run([run.BINARY, *args], cwd=ROOT, capture_output=True,
                          text=True, check=True, timeout=170).stdout


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class TailPercentileTest(unittest.TestCase):
    def test_statistics_self_test_passes(self):
        # Covers: a tail percentile is reported only with >= 10 samples
        # beyond it, and is reported with its sample count.
        out = perfbench("--self-test")
        self.assertIn("0 failure(s)", out)
        self.assertNotIn("FAIL", out)

    def test_engine_tail_lines_carry_sample_counts(self):
        out = perfbench("--workload", "engine-online", "--seed", "3",
                        "--seconds", "2", "--trace", "0")
        tails = [l for l in out.splitlines() if l.startswith("# latency p99")]
        self.assertTrue(tails)
        for line in tails:
            m = re.search(r"over (\d+) samples \((\d+) beyond\)", line)
            if m:
                self.assertGreaterEqual(int(m.group(2)), 10)
            else:
                self.assertIn("not reported", line)


class InputTest(unittest.TestCase):
    def digest(self, workload, seed):
        return perfbench("--input-digest", "--workload", workload,
                         "--seed", str(seed)).strip()

    def test_same_seed_same_inputs_and_other_seed_changes_them(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.digest(workload, 5)
                self.assertEqual(first, self.digest(workload, 5))
                self.assertNotEqual(first, self.digest(workload, 6))


class SimDigestTest(unittest.TestCase):
    def serial_digests(self, seed):
        out = perfbench("--print-digests", "--seed", str(seed))
        return dict(line.split(":", 1) for line in out.strip().splitlines())

    def recorded(self):
        path = os.path.join(PERFBENCH, "harness", "recorded_digests.hpp")
        with open(path) as f:
            text = f.read()
        out = {}
        for workload, name in (("sim-fleet", "kSimFleetDigests"),
                               ("sim-accel", "kSimAccelDigests")):
            body = re.search(name + r" = \{(.*?)\};", text, re.S).group(1)
            out[workload] = re.findall(r"0x[0-9a-f]{16}", body)
        return out

    def test_digests_stable_for_a_fixed_seed(self):
        self.assertEqual(self.serial_digests(2), self.serial_digests(2))

    def test_seed_one_matches_the_recorded_digests(self):
        got = {w: d.split() for w, d in self.serial_digests(1).items()}
        self.assertEqual(got, self.recorded())


class MetricNameTest(unittest.TestCase):
    def test_every_metric_the_command_can_print_is_in_benchmark_json(self):
        listed = json.loads(perfbench("--list-metrics"))
        spec = benchmark_json()
        for kind in ("end_to_end", "per_layer"):
            with self.subTest(kind=kind):
                printed = {(m["name"], m["unit"]) for m in listed
                           if m["kind"] == kind}
                declared = {(m["name"], m["unit"]) for m in spec[kind]}
                self.assertEqual(printed, declared)

    def test_printed_result_matches_benchmark_json(self):
        spec = benchmark_json()
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(kind=kind):
                out = subprocess.run(
                    [sys.executable, os.path.join(PERFBENCH, "run.py"),
                     "--workload", "engine-online", "--seed", "2",
                     "--seconds", "1", "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, check=True,
                    timeout=170).stdout
                result = json.loads(out.strip().splitlines()[-1])
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in spec[kind]})


if __name__ == "__main__":
    unittest.main()
