"""Fast self-test of the benchmark harness on a tiny scenario (about 10 s).

    python3 perfbench/selftest.py

Runs the harness's own sample, check and summary code on configs/smoke.ini
shrunk to 20 worlds x 8 particles x 10 steps on a 40 x 10 grid.
"""

import configparser
import json
import math
import os
import shutil
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

WORK = os.path.join(run.OUT_DIR, "selftest")
TINY = {"run": {"n_steps": "10", "n_paths": "20", "n_particles": "8"},
        "pde_grid": {"n_s": "40", "n_x": "10"}}


def write_config(name: str, **run_keys) -> str:
    """configs/smoke.ini with the tiny sizes; returns its path relative to ROOT."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(os.path.join(ROOT, "configs", "smoke.ini"), encoding="utf-8")
    for section, keys in TINY.items():
        parser[section].update(keys)
    parser["run"].update(run_keys)
    path = os.path.join(WORK, name)
    with open(os.path.join(ROOT, path), "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


def units(trace: bool) -> dict:
    return run.benchmark_units(ROOT, trace)


class HarnessSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(os.path.join(ROOT, WORK), exist_ok=True)
        cls.hedge = run.Workload("hedge", write_config("tiny.ini"))
        cls.plain = run.run_sample(ROOT, cls.hedge, 7, False, "selftest-plain")
        cls.traced = run.run_sample(ROOT, cls.hedge, 7, True, "selftest-traced")
        cls.setup = run.setup_sample(ROOT, cls.hedge, "selftest-setup",
                                     time.perf_counter() + run.SAMPLE_TIMEOUT_S)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(os.path.join(ROOT, run.OUT_DIR), ignore_errors=True)

    def assert_metrics(self, result: dict, expected: dict):
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertTrue(math.isfinite(metric["value"]), name)
        json.dumps(result)

    def test_samples_pass_their_checks(self):
        for record in (self.plain, self.traced):
            self.assertTrue(record["ok"], record["problems"])
            self.assertEqual(record["exit"], 0)

    def test_end_to_end_metrics_named_with_units(self):
        result, missing = run.summarize([self.plain], [self.setup], False,
                                        units(False))
        self.assertEqual(missing, [])
        self.assert_metrics(result, units(False))
        self.assertEqual((result["correct"], result["attempted"], result["failed"]),
                         (True, 1, 0))

    def test_per_layer_metrics_named_with_units(self):
        result, missing = run.summarize([self.plain, self.traced], [self.setup], True,
                                        units(True))
        self.assertEqual(missing, [])
        self.assert_metrics(result, units(True))
        layers = self.traced["layers"]
        self.assertEqual(layers["filtering.particle_steps"], 20 * 8 * 10)
        self.assertEqual(layers["simulate.paths"], 40)         # the P and the P-hat legs
        self.assertLess(layers["trace.unattributed_s"], self.traced["wall_s"])

    def test_traced_and_untraced_outputs_identical(self):
        self.assertTrue(self.plain["sha256"])
        self.assertEqual(self.plain["sha256"], self.traced["sha256"])

    def test_invalid_config_counts_as_failed(self):
        bad = run.Workload("hedge", write_config("invalid.ini", n_particles="0"))
        record = run.run_sample(ROOT, bad, 7, False, "selftest-invalid")
        self.assertEqual(record["exit"], 2)
        self.assertFalse(record["ok"])
        result, _ = run.summarize([self.plain, record], [self.setup], False, units(False))
        self.assertEqual((result["correct"], result["attempted"], result["failed"]),
                         (False, 2, 1))
        self.assertEqual(result["metrics"]["ok_frac"]["value"], 0.5)

    def test_wrong_reference_value_fails_the_check(self):
        wrong = run.Workload("hedge", self.hedge.config, g0=1.0)
        record = run.run_sample(ROOT, wrong, 7, False, "selftest-wrong-ref")
        self.assertFalse(record["ok"])
        self.assertTrue(any("reference" in p for p in record["problems"]), record["problems"])

    def test_solve_surface_check(self):
        solve = run.Workload("solve", self.hedge.config)
        record = run.run_sample(ROOT, solve, 7, False, "selftest-solve")
        self.assertTrue(record["ok"], record["problems"])

    def test_value_parsing_and_finite_check(self):
        self.assertEqual(run.parse_number("np.float64(-1.5e-05)"), (-1.5e-05, True))
        self.assertEqual(run.parse_number("0.25"), (0.25, False))
        path = os.path.join(ROOT, WORK, "bad.csv")
        for body, ok in (("1.0,-2e-05\n", True), ("1.0,nan\n", False), ("inf,1\n", False)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("# ulhedge config=0 quantity=x\nt=0,t=1\n" + body)
            problems = []
            run.check_numeric_csv(path, problems)
            self.assertEqual(not problems, ok, body)


if __name__ == "__main__":
    unittest.main()
