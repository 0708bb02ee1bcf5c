#!/usr/bin/env python3
"""The benchmark's own tests, at the tiny scale (a minute or two in all).

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks that its names match
BENCHMARK.json, that its fingerprints are deterministic, that --seed
changes the inputs, and that run.py keeps the output contract and refuses
to run without the sources. (Every run also checks the overlay against a
one-engine-worker build and reports the result in `correct`.)
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (perfbench/run.py)

SECONDS = "1"


def bench_run(binary, workload, seed, trace=0):
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace), "--scale", "tiny"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def simulated(result):
    """The end-to-end metrics that are simulated, not timed."""
    names = ("delivery_p50_ticks", "delivery_p99_ticks", "ringcast_last_hop",
             "search_hit_pct")
    return {n: result["end_to_end"][n]["value"] for n in names}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.spec = run.spec()
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def test_workload_names_match_benchmark_json(self):
        out = subprocess.run([str(self.binary), "--list"], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        self.assertEqual(out.split(), self.workloads)

    def test_metric_names_and_units_match_benchmark_json(self):
        for workload in self.workloads:
            result = bench_run(self.binary, workload, 1, trace=1)
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0, workload)
            e2e = {n: m["unit"] for n, m in result["end_to_end"].items()}
            self.assertEqual(e2e, {m["name"]: m["unit"]
                                   for m in self.spec["end_to_end"]})
            layers = {n: m["unit"] for n, m in result["per_layer"].items()}
            wanted = {m["name"]: m["unit"] for m in self.spec["per_layer"]
                      if not m["name"].startswith("trace.overhead.")}
            self.assertEqual(layers, wanted)

    def test_fingerprint_is_deterministic(self):
        for workload in self.workloads:
            a = bench_run(self.binary, workload, 7)
            b = bench_run(self.binary, workload, 7)
            self.assertTrue(a["correct"] and b["correct"], workload)
            self.assertEqual(a["fingerprint"], b["fingerprint"], workload)
            self.assertEqual(simulated(a), simulated(b), workload)

    def test_seed_changes_inputs_and_fingerprint(self):
        for workload in self.workloads:
            a = bench_run(self.binary, workload, 1)
            b = bench_run(self.binary, workload, 2)
            self.assertNotEqual(a["fingerprint"], b["fingerprint"], workload)

    def test_run_py_prints_the_contract_line(self):
        names = {0: [m["name"] for m in self.spec["end_to_end"]],
                 1: [m["name"] for m in self.spec["per_layer"]]}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 self.workloads[0], "--seed", "3", "--seconds", SECONDS,
                 "--trace", str(trace), "--scale", "tiny"],
                stdout=subprocess.PIPE, text=True, check=True, timeout=300)
            last = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            self.assertEqual(sorted(last),
                             ["attempted", "correct", "failed", "metrics"])
            self.assertEqual(sorted(last["metrics"]), sorted(names[trace]))
            self.assertTrue(last["correct"])
            self.assertGreaterEqual(last["attempted"], 1)

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 self.workloads[0], "--seed", "1", "--seconds", SECONDS,
                 "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
