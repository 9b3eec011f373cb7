#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 blocbench/test_bench.py

- the self-time arithmetic on hand-built span trees (the trace_test binary);
- a short smoke run of every workload, untraced and traced: run.py exits 0
  only when the run emits every metric named in BENCHMARK.json, under a
  valid name and with its unit, and every output matches the serial
  reference;
- another seed changes the inputs but not the metric set.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

SMOKE_SECONDS = "2"


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(workload, seed, trace, out_dir):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SMOKE_SECONDS, "--trace",
         str(trace), "--out", out_dir],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(out_dir, f"{workload}-s{seed}-t{trace}.json")) as f:
        record = json.load(f)
    return result, record


class TraceArithmetic(unittest.TestCase):
    def test_self_time_on_hand_built_trees(self):
        build_dir = run.build(("trace_test",))
        subprocess.run([os.path.join(build_dir, "trace_test")], check=True)


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.out = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))

    def test_every_workload_emits_every_metric(self):
        s = spec()
        for w in s["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                result, _ = run_workload(w["name"], 1, 0, self.out)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                for m in s["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
            with self.subTest(workload=w["name"], trace=1):
                result, record = run_workload(w["name"], 1, 1, self.out)
                self.assertTrue(result["correct"])
                coverage = result["metrics"]["trace.coverage_pct"]["value"]
                self.assertGreaterEqual(coverage, 90.0)
                self.assertIn("layer_shares", record["details"])

    def test_seed_changes_inputs_not_metric_set(self):
        _, rec_a = run_workload("locate-static", 1, 0, self.out)
        _, rec_b = run_workload("locate-static", 2, 0, self.out)
        self.assertNotEqual(rec_a["fingerprint"], rec_b["fingerprint"])
        # Every metric the binary set, not only the ones run.py printed.
        self.assertEqual(set(rec_a["result"]["metrics"]),
                         set(rec_b["result"]["metrics"]))
        self.assertEqual(rec_a["stamp"], rec_b["stamp"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
