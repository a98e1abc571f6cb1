"""Tests of the benchmark's own machinery (run from the checkout root):

    python3 -m unittest discover -s perfbench/tests -v

The statistics and contract tests need nothing built; the others build the
program once (about a minute) and run short, fixed-seed workloads.
"""

import os
import statistics
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402  (perfbench/run.py)

BUILT = None


def built():
    global BUILT
    if BUILT is None:
        BUILT = run.build()
    return BUILT


class SpreadTest(unittest.TestCase):
    def test_spread_matches_the_acceptance_rule(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        med, q1, q3, rel = run.spread(values)
        want_q1, _, want_q3 = statistics.quantiles(values, n=4)
        self.assertEqual(med, statistics.median(values))
        self.assertEqual((q1, q3), (want_q1, want_q3))
        self.assertAlmostEqual(rel, (want_q3 - want_q1) / med)

    def test_constant_values_have_zero_spread(self):
        self.assertEqual(run.spread([3.0] * 10)[3], 0.0)


class ParseTest(unittest.TestCase):
    def test_result_is_the_last_line(self):
        text = ("metric lines\nperfbench-info {\"digest\":\"ab\"}\n"
                "{\"correct\":true,\"attempted\":3,\"failed\":0,"
                "\"metrics\":{}}\n")
        result, info = run.parse_output(text)
        self.assertTrue(result["correct"])
        self.assertEqual(info["digest"], "ab")

    def test_extra_keys_are_not_a_result(self):
        text = ("{\"correct\":true,\"attempted\":1,\"failed\":0,"
                "\"metrics\":{},\"x\":1}")
        self.assertIsNone(run.parse_output(text)[0])

    def test_missing_result(self):
        self.assertIsNone(run.parse_output("building...\n")[0])


class ConformTest(unittest.TestCase):
    CATALOG = [{"name": "a_ms", "unit": "ms"}, {"name": "b", "unit": "count"}]

    def program_result(self, metrics):
        return {"correct": True, "attempted": 4, "failed": 0,
                "metrics": metrics}

    def test_catalog_order_and_units(self):
        got = self.program_result({"b": {"value": 3, "unit": ""},
                                   "a_ms": {"value": 1.5, "unit": "ms"}})
        result, problems = run.conform(got, self.CATALOG, False)
        self.assertEqual(problems, [])
        self.assertTrue(result["correct"])
        self.assertEqual(list(result["metrics"]), ["a_ms", "b"])
        self.assertEqual(result["metrics"]["b"], {"value": 3, "unit": "count"})

    def test_missing_per_layer_metric_reads_zero(self):
        got = self.program_result({"a_ms": {"value": 1.5, "unit": ""}})
        result, problems = run.conform(got, self.CATALOG, True)
        self.assertEqual(problems, [])
        self.assertEqual(result["metrics"]["b"]["value"], 0.0)

    def test_missing_end_to_end_metric_fails(self):
        got = self.program_result({"a_ms": {"value": 1.5, "unit": "ms"}})
        result, problems = run.conform(got, self.CATALOG, False)
        self.assertEqual(len(problems), 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_unknown_name_and_wrong_unit_fail(self):
        got = self.program_result({"a_ms": {"value": 1.5, "unit": "s"},
                                   "b": {"value": 3, "unit": ""},
                                   "typo": {"value": 1, "unit": ""}})
        result, problems = run.conform(got, self.CATALOG, True)
        self.assertEqual(len(problems), 2)
        self.assertFalse(result["correct"])


class ContractTest(unittest.TestCase):
    def setUp(self):
        self.bench = run.load_benchmark()

    def test_keys_and_limits(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in b["workloads"]], run.WORKLOADS)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_digests_pin_every_workload(self):
        pins = run.load_json("digests.json")
        self.assertEqual(sorted(pins["digests"]), sorted(run.WORKLOADS))


class ProgramTest(unittest.TestCase):
    def setUp(self):
        if not built():
            self.fail("the benchmark program did not build")

    def test_every_metric_is_reported_and_nonzero(self):
        bench = run.load_benchmark()
        code, result, _ = run.run_program("decode-paged", 5, 1, False)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in bench["end_to_end"]))
        for m in result["metrics"].values():
            self.assertNotEqual(m["value"], 0)

    def test_traced_run_reports_per_layer_metrics(self):
        bench = run.load_benchmark()
        code, result, _ = run.run_program("decode-paged", 5, 1, True)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in bench["per_layer"]))
        self.assertGreater(
            result["metrics"]["runtime.kv.evictions"]["value"], 0)

    def test_simulated_outputs_repeat_across_runs_and_pool_sizes(self):
        seen = []
        for workers in (1, 2, 1):
            code, result, info = run.run_program("online-serve", 3, 0.5,
                                                 False, workers)
            self.assertEqual(code, 0)
            sim = {k: result["metrics"][k]["value"]
                   for k in info["sim_metrics"]}
            seen.append((info["digest"], sim))
        self.assertEqual(seen[0], seen[1])
        self.assertEqual(seen[0], seen[2])

    def test_wrong_pin_fails_the_run(self):
        done = subprocess.run(
            [run.binary_path(), "--workload", "decode-paged", "--seed", "5",
             "--seconds", "0.5", "--trace", "0", "--expect-digest", "0" * 16],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            check=False)
        self.assertNotEqual(done.returncode, 0)
        result, _ = run.parse_output(done.stdout)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
