"""Determinism and smoke tests of the repository benchmark.

Run from the root of the checkout (the first run builds perfbench):

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "tests")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# kv-numa-sim metrics that come from the simulated clock; set-up time and
# resident memory are host measurements and vary between runs.
SIM_METRICS = ("ops_per_s", "op_p50_ns", "op_p99_ns", "ok_op_share",
               "lock_state_bytes")


def run_bench(workload, seed, trace=0, seconds=1, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError("benchmark failed (%d): %s"
                             % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().split("\n")[-1])


class SimDeterminismTest(unittest.TestCase):
    def test_same_seed_gives_identical_simulated_metrics(self):
        a = result_of(run_bench("kv-numa-sim", 7))["metrics"]
        b = result_of(run_bench("kv-numa-sim", 7))["metrics"]
        for name in SIM_METRICS:
            self.assertEqual(a[name], b[name], name)

    def test_other_seed_changes_simulated_metrics(self):
        a = result_of(run_bench("kv-numa-sim", 7))["metrics"]
        b = result_of(run_bench("kv-numa-sim", 8))["metrics"]
        for name in ("ops_per_s", "op_p50_ns", "op_p99_ns"):
            self.assertNotEqual(a[name], b[name], name)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run_bench(workload, seed=3, trace=trace)
        result = result_of(proc)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in spec})
        # Every metric is also printed by name, with its unit, for people.
        lines = proc.stdout.split("\n")
        for m in spec:
            self.assertTrue(
                any(l.split()[:1] == [m["name"]] and l.split()[-1] == m["unit"]
                    for l in lines if l.strip()),
                "%s not printed for %s" % (m["name"], workload))
        self.assertIn("# meta {", proc.stdout)

    def test_every_workload_reports_every_metric(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)

    def test_fails_without_the_library_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/ must be
        # refused quickly and without a result line.
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("kv-numa-sim", 1, cwd=bare,
                         script=os.path.join(bare, "perfbench", "run.py"))
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
