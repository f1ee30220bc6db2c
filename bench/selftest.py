"""Self-test of the benchmark: schema and checks, never timings.

Usage, from the repository root (about a minute):

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json at a tiny length with ``--trace 0``
and ``--trace 1`` and checks that the last output line is the result
object with exactly the keys correct/attempted/failed/metrics, that the run
passed its own output checks, and that it reported exactly the end-to-end
(untraced) or per-layer (traced) metrics that BENCHMARK.json names, each
with its declared unit.  It also checks that the benchmark refuses to run,
without printing a result, in a directory holding only BENCHMARK.json and
the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = "1"


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", TINY_SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


class BenchmarkSelfTest(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = run(ROOT, workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(result["correct"], True)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_refuses_to_run_without_the_repository(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, tmp / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            done = run(tmp, SPEC["workloads"][0]["name"], 0)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
