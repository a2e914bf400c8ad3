#!/usr/bin/env python3
"""The benchmark's own test.

Run from the root of the source tree:

    python3 perfbench/test_perfbench.py

It builds the benchmark (through run.py) and makes short passes of every
workload. Two traced passes with one seed must agree exactly on the count
metrics and on the accuracy figures; a pass with another seed must see other
data and another query stream. An end-to-end pass must print exactly the
metrics BENCHMARK.json names, and bad arguments must fail without a result.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

COUNT_METRICS = [
    "driver.statements_per_query",
    "engine.rows_scanned_per_query",
    "core.plan_candidates",
    "sql.rewritten_sql_bytes",
    "sampling.append_statements",
]
# Reported on the detail line, before the result line.
ACCURACY_FIGURES = ["rel_error_p50", "ci_coverage_gap", "accuracy_cells"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace, seconds=1):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["perfbench"]


class PerfbenchTest(unittest.TestCase):

    def check_result(self, result, names):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_traced_counts_repeat_and_seed_changes_inputs(self):
        per_layer = [m["name"] for m in spec()["per_layer"]]
        for w in [w["name"] for w in spec()["workloads"]]:
            with self.subTest(workload=w):
                a, da = run(w, 7, 1)
                b, db = run(w, 7, 1)
                c, dc = run(w, 8, 1)
                for r in (a, b, c):
                    self.check_result(r, per_layer)
                for name in COUNT_METRICS:
                    self.assertEqual(a["metrics"][name]["value"],
                                     b["metrics"][name]["value"], name)
                for name in ACCURACY_FIGURES:
                    self.assertEqual(da[name], db[name], name)
                self.assertEqual(da["inputs"], db["inputs"])
                self.assertNotEqual(da["inputs"]["data_digest"],
                                    dc["inputs"]["data_digest"])
                self.assertNotEqual(da["inputs"]["queries_digest"],
                                    dc["inputs"]["queries_digest"])

    def test_end_to_end_metrics(self):
        end_to_end = [m["name"] for m in spec()["end_to_end"]]
        for w in [w["name"] for w in spec()["workloads"]]:
            with self.subTest(workload=w):
                result, detail = run(w, 3, 0)
                self.check_result(result, end_to_end)
                self.assertGreater(detail["query_samples"], 0)
                self.assertEqual(detail["ops_failed_ratio"], 0)
                for key in ("nproc", "simd_dispatched", "build_type", "commit",
                            "seed"):
                    self.assertIn(key, detail["host"])

    def test_bad_arguments_fail_without_result(self):
        out = subprocess.run(
            [sys.executable, RUN, "--workload", "no_such_workload", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
