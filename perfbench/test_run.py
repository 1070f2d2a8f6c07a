#!/usr/bin/env python3
"""Tests of the benchmark's own logic: parsers, digest masking, failure
counting. Needs no build: python3 perfbench/test_run.py"""
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

LEGACY_OUT = """metrics JSON written to m.json
MIX8-RT: 64 machines, lambda=120/min, 10.0 h, medium mix
  completed 36891 (FIFO 34664, normalized 1.064)
  dropped 35091   mean runtime 108.7 s   mean wait 6.9 s
"""
SHARDED_OUT = """MIBS8-RT: 10000 machines, 64 shards, 4 threads, lambda=10000/min, 0.5 h, medium mix
  completed 267898 (FIFO 253533, normalized 1.057)
  dropped 15805   mean runtime 102.9 s   mean wait 1.8 s
"""
METRICS = """{
  "fingerprint": {
    "build": "b46c56f-dirty",
    "machines": "10000",
    "mix": "medium",
    "scheduler": "MIBS8-RT",
    "seed": "42",
    "shards": "64",
    "threads": "4"
  },
  "counters": {
    "sim.tasks.arrived": 300460,
    "sim.tasks.completed": 267898,
    "sim.tasks.dropped": 15805
  },
  "gauges": {},
  "histograms": {
    "sim.task.runtime_s": {"count": 267898, "sum": 27563012.0, "buckets": []},
    "sim.task.wait_s": {"count": 284372, "sum": 510383.5, "buckets": []}
  }
}
"""


class ParserTest(unittest.TestCase):
    def test_legacy_summary(self):
        s = run.parse_summary(LEGACY_OUT)
        self.assertEqual(s["scheduler"], "MIX8-RT")
        self.assertEqual((s["machines"], s["lam"], s["hours"]),
                         (64, 120, "10.0"))
        self.assertNotIn("shards", s)
        self.assertEqual((s["completed"], s["fifo"], s["dropped"]),
                         (36891, 34664, 35091))
        self.assertEqual(len(s["lines"]), 3)

    def test_sharded_summary(self):
        s = run.parse_summary(SHARDED_OUT)
        self.assertEqual((s["shards"], s["threads"]), (64, 4))
        self.assertEqual(s["completed"], 267898)

    def test_missing_or_nan_summary_is_an_error(self):
        with self.assertRaises(run.CheckError):
            run.parse_summary("metrics JSON written to m.json\n")
        nan = SHARDED_OUT.replace("normalized 1.057", "normalized -nan")
        with self.assertRaises(run.CheckError):
            run.parse_summary(nan)

    def test_metrics(self):
        m = run.parse_metrics(METRICS)
        self.assertEqual((m["arrived"], m["completed"], m["dropped"]),
                         (300460, 267898, 15805))
        self.assertEqual(m["fingerprint"]["shards"], "64")
        self.assertAlmostEqual(m["wait_sum"] / m["wait_count"], 1.794774, 5)

    def test_malformed_metrics_is_an_error(self):
        for text in ("{", "{}", METRICS.replace('"sim.task.wait_s"', '"x"')):
            with self.assertRaises(run.CheckError):
                run.parse_metrics(text)

    def test_shape_guard_catches_another_workload(self):
        wl = run.WORKLOADS["provenance-10k"]
        s = run.parse_summary(SHARDED_OUT.replace("4 threads",
                                                  f"{run.THREADS} threads"))
        fp = run.parse_metrics(METRICS)["fingerprint"]
        fp["threads"] = str(run.THREADS)
        run.check_shape(wl, 42, s, fp)
        # A misspelt --hours is ignored by the CLI, which then runs 10 h.
        with self.assertRaises(run.CheckError):
            run.check_shape(wl, 42, dict(s, hours="10.0"), fp)
        with self.assertRaises(run.CheckError):
            run.check_shape(wl, 7, s, fp)
        with self.assertRaises(run.CheckError):
            run.check_shape(run.WORKLOADS["fleet-1m"], 42, s, fp)

    def test_any_threads(self):
        self.assertEqual(run.any_threads(SHARDED_OUT.splitlines()[0]),
                         run.any_threads(SHARDED_OUT.splitlines()[0]
                                         .replace("4 threads", "2 threads")))


class DigestTest(unittest.TestCase):
    def digest(self, text):
        with tempfile.NamedTemporaryFile("w", delete=False) as f:
            f.write(text)
        try:
            return run.masked_digest(f.name)
        finally:
            os.unlink(f.name)

    def test_build_and_threads_are_masked(self):
        base = self.digest(METRICS)
        self.assertEqual(base, self.digest(
            METRICS.replace("b46c56f-dirty", "v1.2-7-gdeadbee")))
        self.assertEqual(base, self.digest(
            METRICS.replace('"threads": "4"', '"threads": "1"')))

    def test_records_and_other_keys_are_not_masked(self):
        base = self.digest(METRICS)
        self.assertNotEqual(base, self.digest(
            METRICS.replace("267898", "267864")))
        self.assertNotEqual(base, self.digest(
            METRICS.replace('"seed": "42"', '"seed": "43"')))

    def test_jsonl_header_is_masked(self):
        log = ('{"schema": "tracon.decision_log", "version": 2, '
               '"fingerprint": {"build": "%s", "seed": "42"}}\n'
               '{"kind": "decision", "task": 1, "build": "x"}\n')
        self.assertEqual(self.digest(log % "a"), self.digest(log % "bb"))
        self.assertNotEqual(self.digest(log % "a"),
                            self.digest((log % "a").replace('"x"', '"y"')))


class FailureTest(unittest.TestCase):
    def test_crashing_child_is_counted_not_dropped(self):
        tally = run.Tally()
        with tempfile.TemporaryDirectory() as d:
            child = run.Child([sys.executable, "-c",
                               "import os; os.abort()"], 30, d)
        self.assertIsNone(tally.attempt("crash", child.require_success))
        self.assertEqual((tally.attempted, len(tally.failures)), (1, 1))

    def test_timed_out_child_is_a_failure(self):
        with tempfile.TemporaryDirectory() as d:
            child = run.Child([sys.executable, "-c",
                               "import time; time.sleep(30)"], 0.5, d)
        self.assertTrue(child.timed_out)
        with self.assertRaises(run.CheckError):
            child.require_success()

    def test_crashing_workload_invocation_is_counted(self):
        with tempfile.TemporaryDirectory() as d:
            fake = os.path.join(d, "tracon")
            with open(fake, "w") as f:
                f.write("#!/bin/sh\nkill -SEGV $$\n")
            os.chmod(fake, 0o755)
            saved = run.binary, run.WORK_DIR
            run.binary = lambda name: fake
            run.WORK_DIR = d
            try:
                tally = run.Tally()
                measured, done = run.run_invocations(
                    "paper-mix", 42, 0.0, tally, None, float("inf"))
            finally:
                run.binary, run.WORK_DIR = saved
        self.assertEqual((measured, done), ([], []))
        self.assertEqual((tally.attempted, len(tally.failures)), (1, 1))
        self.assertIn("exit status -11", tally.failures[0])

    def test_missing_binary_is_a_failure(self):
        tally = run.Tally()
        with tempfile.TemporaryDirectory() as d:
            got = tally.attempt("missing", lambda: run.Child(
                [os.path.join(d, "absent")], 30, d))
        self.assertIsNone(got)
        self.assertEqual((tally.attempted, len(tally.failures)), (1, 1))


if __name__ == "__main__":
    unittest.main()
