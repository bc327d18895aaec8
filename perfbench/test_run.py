#!/usr/bin/env python3
"""Tests of the benchmark itself, on the tiny --smoke variant of each workload.

    python3 perfbench/test_run.py        # from the repository root

Builds the harness on first use (like run.py) and takes about half a minute.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SPEC = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))


def bench(*args):
    res = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--smoke", *args],
                         capture_output=True, text=True)
    return res, json.loads(res.stdout.strip().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    def check(self, workload, trace):
        res, out = bench("--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace))
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"], res.stderr)
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 2)
        listed = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(out["metrics"]), {m["name"] for m in listed})
        for m in listed:
            self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])
        return out["metrics"]

    def test_every_workload_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                m = self.check(w["name"], 0)
                for name, v in m.items():
                    self.assertGreater(v["value"], 0, name)

    def test_every_workload_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                m = self.check(w["name"], 1)
                self.assertGreater(m["sim.events_executed"]["value"], 0)
                self.assertGreater(m["trace.attributed_ratio"]["value"], 0)


def run_args(workload, smoke):
    return argparse.Namespace(workload=workload, seed=3, smoke=smoke,
                              trace=0)


# The budget tests use full-size jobs, which outlive the first poll.
class Budgets(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(run.WORK_DIR, exist_ok=True)
        cls.path = os.path.join(run.WORK_DIR, "test-budget.xml")
        with open(cls.path, "w") as f:
            f.write(run.server_wave(3, 48))

    def test_wall_budget_kill(self):
        row = run.run_job(self.path, "wall", False, 0.05,
                          run.JOB_RSS_BUDGET_MB)
        self.assertIn("did not finish (wall budget", row["dnf"])
        self.assertRegex(row["dnf"], r"at simulated second \d+$")

    def test_rss_budget_kill(self):
        row = run.run_job(self.path, "rss", False, run.JOB_WALL_BUDGET_S, 2)
        self.assertIn("did not finish (RSS budget", row["dnf"])

    def test_killed_job_is_a_failed_run(self):
        with mock.patch.object(run, "JOB_WALL_BUDGET_S", 0.05), \
                contextlib.redirect_stderr(io.StringIO()):
            r = run.Run(run_args("server_wave", smoke=False))
            r.jobs = r.jobs[:2]
            r.run_pass(traced=False)
        self.assertEqual(r.attempted, 2)
        self.assertEqual(len(r.failures), 2)
        self.assertEqual(r.passes[False], [])


class Fingerprints(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(run.WORK_DIR, exist_ok=True)

    def test_expected_fingerprint_mismatch_fails_the_job(self):
        with contextlib.redirect_stderr(io.StringIO()):
            good = run.Run(run_args("hostile_churn", smoke=True))
            good.run_pass(traced=False)
            want = [list(good.fingerprints[k]) for k in range(2)]
            want[1][2] += 1   # one executed event more than the job runs
            r = run.Run(run_args("hostile_churn", smoke=True), want)
            r.run_pass(traced=False)
        self.assertEqual(good.failures, [])
        self.assertEqual(len(r.failures), 1)
        self.assertIn("job 1: fingerprint", r.failures[0])
        self.assertIn("expected.json", r.failures[0])

    def test_expected_json_covers_each_held_out_set(self):
        for name, spec in run.WORKLOADS.items():
            with self.subTest(workload=name):
                want = run.expected_fingerprints(name, spec["held_out"])
                self.assertEqual(len(want), spec["jobs"][0])
                self.assertTrue(all(len(fp) == len(run.FINGERPRINT)
                                    for fp in want))


class Inputs(unittest.TestCase):
    def test_seed_fixes_the_job_set(self):
        self.assertEqual(run.job_seeds("server_wave", 5, 4),
                         run.job_seeds("server_wave", 5, 4))
        self.assertNotEqual(run.job_seeds("server_wave", 5, 4),
                            run.job_seeds("server_wave", 6, 4))
        self.assertNotEqual(run.job_seeds("server_wave", 5, 4),
                            run.job_seeds("hostile_churn", 5, 4))

    def test_workloads_match_benchmark_json(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]},
                         set(run.WORKLOADS))


class Attribution(unittest.TestCase):
    def test_module_of(self):
        cases = {
            "vcmr::net::Network::level(unsigned long)": "net",
            "vcmr::sim::Simulation::at(vcmr::SimTime, std::function<void ()>)":
                "sim",
            "vcmr::SimTime::str[abi:cxx11]() const": "common",
            "std::_Rb_tree<vcmr::obs::MetricKey, std::pair<vcmr::obs::"
            "MetricKey const, vcmr::obs::Counter> >::find("
            "vcmr::obs::MetricKey const&)": "obs",
            "std::_Function_handler<void (vcmr::net::NetError), vcmr::client::"
            "MapOutputServer::arm_timeout()::{lambda()#1}>::_M_invoke("
            "std::_Any_data const&)": "client",
            "std::_Rb_tree<vcmr::NodeId, vcmr::NodeId>::find("
            "vcmr::NodeId const&)": None,
            "malloc": None,
            "std::__cxx11::basic_string<char>::_M_append(char const*, "
            "unsigned long)": None,
        }
        for name, module in cases.items():
            with self.subTest(name=name):
                self.assertEqual(run.module_of(name), module)


if __name__ == "__main__":
    unittest.main()
