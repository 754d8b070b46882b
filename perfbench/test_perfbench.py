#!/usr/bin/env python3
"""Smoke-size test of the benchmark runner (run.py).

Run from the repository root:

    python3 perfbench/test_perfbench.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json is
printed with its unit on every workload by one --workload all command, and
that a deliberately broken correctness check (a wrong expected request count)
makes the run fail.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the runner module, for its workload table)


def drive(workload, trace, *extra):
    """Runs run.py at smoke size; returns (exit code, stdout lines, stderr)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    return out.returncode, out.stdout.strip().splitlines(), out.stderr


class BenchmarkSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_workloads_match_spec(self):
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]),
                         sorted(run.WORKLOADS))

    def check_metrics(self, trace, declared):
        code, lines, err = drive("all", trace)
        self.assertEqual(code, 0, err)
        results = {}
        for line in lines[:-1]:
            name, _, rest = line.partition(" ")
            if name in run.WORKLOADS:
                results[name] = json.loads(rest)
        self.assertEqual(sorted(results), sorted(run.WORKLOADS))
        for workload, result in sorted(results.items()):
            with self.subTest(workload=workload, trace=trace):
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(sorted(result["metrics"]),
                                 sorted(m["name"] for m in declared))
                for m in declared:
                    printed = result["metrics"][m["name"]]
                    self.assertEqual(printed["unit"], m["unit"], m["name"])
                    self.assertIsInstance(printed["value"], (int, float), m["name"])
        final = json.loads(lines[-1])
        self.assertTrue(final["correct"])
        self.assertEqual(final["failed"], 0)
        self.assertEqual(len(final["metrics"]), len(declared) * len(run.WORKLOADS))

    def test_end_to_end_metrics_printed_with_units(self):
        self.check_metrics(0, self.spec["end_to_end"])

    def test_per_layer_metrics_printed_with_units(self):
        self.check_metrics(1, self.spec["per_layer"])

    def test_broken_check_fails_the_run(self):
        code, lines, err = drive("read_openloop_seq", 0, "--break-check")
        result = json.loads(lines[-1])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("expected", err)


if __name__ == "__main__":
    unittest.main()
