#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny size, both modes.

    python3 perfbench/test_perfbench.py

Each run must match its sequential oracle and emit exactly the metrics
BENCHMARK.json declares for its mode, by name and unit, each finite. The
layer map must cover every per-layer metric, a result that reports an oracle
mismatch must be refused, and the benchmark must refuse, printing no result,
to run from a directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_tiny(workload, trace):
    r = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return r


class TinyWorkloads(unittest.TestCase):
    def check(self, trace):
        declared = SPEC["per_layer" if trace else "end_to_end"]
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                r = run_tiny(w["name"], trace)
                self.assertEqual(r.returncode, 0, r.stderr[-2000:])
                result = json.loads(r.stdout.strip().split("\n")[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = result["metrics"]
                self.assertEqual(list(got), [m["name"] for m in declared])
                for m in declared:
                    value = got[m["name"]]["value"]
                    self.assertEqual(got[m["name"]]["unit"], m["unit"])
                    self.assertIsInstance(value, (int, float))
                    self.assertTrue(math.isfinite(value), m["name"])
                self.assertIn("HOST {", r.stdout)
                self.assertIn("SHAPE ledger_share_of_speculative_time",
                              r.stdout)

    def test_end_to_end(self):
        self.check(trace=0)

    def test_per_layer(self):
        self.check(trace=1)


class Declarations(unittest.TestCase):
    def test_layer_map_covers_per_layer_metrics(self):
        with open(os.path.join(HERE, "layers.json")) as f:
            layers = json.load(f)
        self.assertEqual(set(layers["metrics"]),
                         {m["name"] for m in SPEC["per_layer"]})
        self.assertEqual(set(layers["workloads"]),
                         {w["name"] for w in SPEC["workloads"]})
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        for name, entry in layers["metrics"].items():
            self.assertLessEqual(set(entry["moves"]), e2e, name)

    def test_refuses_incorrect_result(self):
        metrics = {m["name"]: {"value": 1.5, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}

        def line(correct):
            return json.dumps({"correct": correct, "attempted": 40,
                               "failed": 1, "metrics": metrics})

        self.assertIsNone(run.result_problem(line(True), trace=0))
        self.assertIn("oracle", run.result_problem(line(False), trace=0))

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-tree")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        try:
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "md-256",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True,
                timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"metrics"', r.stdout)


if __name__ == "__main__":
    unittest.main()
