#!/usr/bin/env python3
"""Tests of the end-to-end lease benchmark.

    python3 perfbench/test_perfbench.py        # from the repository root

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
checks that the result line is valid JSON naming every declared metric with
its unit and that the output check passed. Proves the output checker is live
by feeding it synthetic bad reads (--selftest), and checks that the
benchmark refuses to run without the repository sources.
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
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "leases_perfbench")


def run_bench(workload, trace, seconds=1, seed=7, cwd=ROOT):
    run = os.path.join(cwd, "perfbench", "run.py")
    return subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


class BenchmarkOutputTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(SPEC_PATH) as f:
            cls.spec = json.load(f)

    def check_result(self, proc, metrics):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        record = json.loads(lines[-2])["run_record"]
        for key in ("hw_threads", "degraded", "loadavg_start", "loadavg_end"):
            self.assertIn(key, record)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return result["metrics"]

    def test_every_workload_prints_every_metric(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                values = self.check_result(run_bench(w["name"], 0),
                                           self.spec["end_to_end"])
                for m in self.spec["end_to_end"]:
                    self.assertGreater(values[m["name"]]["value"], 0, m["name"])
            with self.subTest(workload=w["name"], trace=1):
                values = self.check_result(run_bench(w["name"], 1),
                                           self.spec["per_layer"])
                # Private traffic never needs an approval round.
                self.assertEqual(
                    values["lease_server.writes_deferred_ratio"]["value"], 0)
                self.assertGreater(values["cache_client.hit_ratio"]["value"],
                                   0.99)

    # shared_rw is not in BENCHMARK.json while the runtime serves empty data
    # after an approval races a batched extension (see README.md), so its
    # output check is not asserted here; its approval-path layer is.
    def test_shared_rw_exercises_the_approval_path(self):
        proc = run_bench("shared_rw", 1, seconds=2)
        values = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        self.assertGreater(
            values["lease_server.writes_deferred_ratio"]["value"], 0.5)
        self.assertGreater(values["cache_client.approvals_per_write"]["value"],
                           1)


class OracleTest(unittest.TestCase):
    def test_checker_catches_synthetic_bad_reads(self):
        self.assertEqual(run_bench("private_rw", 0, seconds=0.2).returncode, 0)
        proc = subprocess.run([BINARY, "--selftest"], stdout=subprocess.PIPE,
                              text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        lines = {l.split()[1]: l for l in proc.stdout.splitlines()}
        for case in ("stale_read", "foreign_payload", "never_issued_payload",
                     "non_monotonic_read", "valid_read"):
            self.assertTrue(lines[case].endswith(" ok"), lines[case])
        self.assertIn('got="stale read"', lines["stale_read"])
        self.assertIn('got="foreign payload"', lines["foreign_payload"])


class MissingSourcesTest(unittest.TestCase):
    def test_refuses_without_repository_sources(self):
        scratch = os.path.join(ROOT, ".bench_build", "bare_checkout")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        shutil.copy(SPEC_PATH, scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run_bench("private_rw", 0, cwd=scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
