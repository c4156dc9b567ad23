#!/usr/bin/env python3
"""Tests of the benchmark itself, in smoke mode (tiny geometry, one pass).

    python3 perfbench/test_run.py

Each workload runs untraced and traced; the result line must carry
exactly the metrics `BENCHMARK.json` names, with their units, and every
output check must pass. The harness's own unit tests run too, and the
command must refuse to produce a result without the simulator sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


class BenchmarkContract(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_tables(self):
        b = bench_json()
        self.assertEqual(b["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(
            [(m["name"], m["unit"]) for m in b["end_to_end"]], run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in b["per_layer"]], run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in b["workloads"]), sorted(run.WORKLOADS))
        for m in b["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25, m["name"])

    def test_tail_level_keeps_ten_samples_beyond(self):
        self.assertEqual(run.tail_level(3000), 99.0)
        self.assertEqual(run.tail_level(216), 95.0)
        self.assertEqual(run.tail_level(72), 75.0)
        self.assertEqual(run.percentile([1, 2, 3, 4], 50), 2.5)


class SmokeRuns(unittest.TestCase):
    def check(self, workload, trace):
        r = run_bench(workload, trace)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], r.stdout[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        key = "per_layer" if trace else "end_to_end"
        expect = {m["name"]: m["unit"] for m in bench_json()[key]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        self.assertEqual(got, expect)
        for n, m in result["metrics"].items():
            self.assertIsInstance(m["value"], float, n)

    def test_fig1_exact(self):
        self.check("fig1-exact", 0)
        self.check("fig1-exact", 1)

    def test_serve_mixed(self):
        self.check("serve-mixed", 0)
        self.check("serve-mixed", 1)


class Harness(unittest.TestCase):
    def test_unit_tests(self):
        env = dict(os.environ)
        env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
        r = subprocess.run(
            ["cargo", "test", "--release", "--quiet", "--manifest-path",
             str(HERE / "harness" / "Cargo.toml")],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
        )
        self.assertEqual(r.returncode, 0, r.stdout[-2000:] + r.stderr[-2000:])

    def test_refuses_without_the_sources(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        r = run_bench("fig1-exact", 0, cwd=bare, script=bare / "perfbench" / "run.py")
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"correct"', r.stdout)


if __name__ == "__main__":
    unittest.main()
