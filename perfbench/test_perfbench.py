#!/usr/bin/env python3
"""Tests for the perfbench benchmark: smoke-size runs of every workload, the metric contract
against BENCHMARK.json, and the negative cases the correctness checks must catch.

Run from the repository root:

    python3 perfbench/test_perfbench.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
KV_WORKLOADS = ["kv_update_zns", "kv_scan_conv"]

# Per-layer metrics that must be nonzero on a workload because it runs that layer.
EXERCISED = {
    "conv_randwrite": ["ftl.write.us_p50", "ftl.gc_runs", "ftl.gc_write.count",
                       "ftl.gc_us_per_cycle", "flash.blocks_erased", "ftl.selfprof_share"],
    "emul_randrw": ["hostftl.write.us_p50", "hostftl.read.us_p50", "hostftl.pump.calls",
                    "hostftl.pump.us_mean", "hostftl.gc_cycles", "zns.pages_copied",
                    "hostftl.selfprof_share"],
    "kv_update_zns": ["kv.put.us_p50", "kv.get.us_p50", "env.append.us_mean", "env.calls",
                      "zns.pages_written", "kv.flushes", "kv.selfprof_share"],
    "kv_scan_conv": ["kv.scan.us_p50", "kv.env_reads_per_scan", "kv.entries_per_scan",
                     "ftl.read.us_p50", "env.read.us_p50", "kv.selfprof_share"],
}


def run(args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


def smoke(workload, trace, *extra):
    return run(["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace",
                str(trace), "--smoke"] + list(extra))


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class PerfbenchTest(unittest.TestCase):
    def check_metrics(self, res, spec_metrics):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(res["metrics"]), [m["name"] for m in spec_metrics])
        for m in spec_metrics:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_untraced_smoke_prints_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = smoke(w, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = result(proc)
                self.check_metrics(res, SPEC["end_to_end"])
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])

    def test_traced_smoke_prints_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = smoke(w, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = result(proc)
                self.check_metrics(res, SPEC["per_layer"])
                self.assertTrue(res["correct"])
                for name in EXERCISED[w]:
                    self.assertGreater(res["metrics"][name]["value"], 0, name)

    def test_full_size_runs_match_pinned_fingerprints(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(["--workload", w, "--seed", "1", "--seconds", "0.1", "--trace", "0"])
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertNotIn("fingerprint mismatch", proc.stderr)
                self.assertTrue(result(proc)["correct"])

    def test_perturbed_fingerprint_is_caught(self):
        proc = smoke("conv_randwrite", 0)
        fingerprint = re.search(r"fingerprint: (.*)", proc.stderr).group(1)
        end = int(re.search(r"end=(\d+)", fingerprint).group(1))
        perturbed = fingerprint.replace("end=%d" % end, "end=%d" % (end + 1), 1)
        proc = smoke("conv_randwrite", 0, "--expect-fingerprint", perturbed)
        self.assertEqual(proc.returncode, 1)
        self.assertFalse(result(proc)["correct"])
        self.assertIn("fingerprint mismatch", proc.stderr)

    def test_corrupted_reference_value_is_caught(self):
        for w in KV_WORKLOADS:
            with self.subTest(workload=w):
                proc = smoke(w, 0, "--corrupt-reference")
                self.assertEqual(proc.returncode, 1)
                res = result(proc)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)
                self.assertLess(res["metrics"]["success_rate"]["value"], 1.0)

    def test_unknown_workload_is_rejected_without_result(self):
        proc = run(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout.strip(), "")

    def test_fails_without_result_when_sources_are_absent(self):
        # A directory holding only BENCHMARK.json and perfbench/ cannot build the simulator.
        isolated = os.path.join(ROOT, ".bench_build", "isolated")
        shutil.rmtree(isolated, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(isolated, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        try:
            proc = run(["--workload", "conv_randwrite", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=isolated, env=env)
        finally:
            shutil.rmtree(isolated, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
