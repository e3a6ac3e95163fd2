"""Self-tests of the end-to-end benchmark, in its short mode.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They build the benchmark (as run.py does) and run each workload for about a
second: the result contract, the correctness oracle, the determinism guards
and the failure without sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace=0, cwd=ROOT):
    p = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                        "--workload", workload,
                        "--seed", str(seed), "--seconds", "1",
                        "--trace", str(trace), "--short"],
                       cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    return p


def result_and_details(workload, seed, trace=0):
    p = run(workload, seed, trace)
    if p.returncode != 0:
        raise AssertionError(p.stderr[-3000:])
    result = json.loads(p.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".bench_out", "details-%s-%d-trace%d.json"
                           % (workload, seed, trace))) as f:
        return result, json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_contract(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_end_to_end_contract_and_determinism(self):
        for w in (x["name"] for x in self.spec["workloads"]):
            with self.subTest(workload=w):
                a, da = result_and_details(w, 5)
                b, db = result_and_details(w, 5)
                c, dc = result_and_details(w, 6)
                for r in (a, b, c):
                    self.check_contract(r, self.spec["end_to_end"])
                    self.assertGreater(r["metrics"]["circuit_size"]["value"], 0)
                # Same seed: byte-identical inputs, identical circuit sizes.
                self.assertEqual(da["input_digest"], db["input_digest"])
                self.assertEqual(da["circuit_size"], db["circuit_size"])
                self.assertEqual(a["metrics"]["circuit_size"],
                                 b["metrics"]["circuit_size"])
                # Another seed: other inputs.
                self.assertNotEqual(da["input_digest"], dc["input_digest"])
                self.assertEqual(da["reasons"], [])
                if w == "warm_restart":
                    self.assertEqual(da["misses_after_setup"], 0)
                    self.assertEqual(da["evictions"], 0)
                if w == "compile_mix":
                    self.assertEqual(da["misses_after_setup"], da["fresh_compiles"])
                    self.assertEqual(da["evictions"],
                                     max(0, 4 + da["fresh_compiles"] - 12))
                    self.assertEqual(sum(da["rounds"]) * 2, da["fresh_compiles"])

    def test_trace_reports_every_layer_metric(self):
        for w in (x["name"] for x in self.spec["workloads"]):
            with self.subTest(workload=w):
                r, _ = result_and_details(w, 7, trace=1)
                self.check_contract(r, self.spec["per_layer"])
                m = {k: v["value"] for k, v in r["metrics"].items()}
                self.assertEqual(m["client.retries"], 0)
                self.assertAlmostEqual(
                    m["server.layer_sum_us"] + m["server.residual_us"],
                    m["server.client_p50_us"], places=6)
                if w == "warm_restart":
                    self.assertEqual(m["cache.hit_ratio"], 1.0)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            p = run("cli_sdd", 1, cwd=d)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
