"""Self-tests of the run-to-run statistics in run.py.

Run from the repository root: python3 -m unittest discover -s wlqbench -p 'test_*.py'
"""

import contextlib
import io
import json
import tempfile
import unittest
from pathlib import Path

import run


class SpreadTest(unittest.TestCase):
    def test_spread_is_interquartile_range_over_median(self):
        values = [float(v) for v in range(1, 11)]
        # statistics.quantiles(1..10, n=4) == [2.75, 5.5, 8.25]
        self.assertAlmostEqual(run.spread(values), (8.25 - 2.75) / 5.5)
        self.assertEqual(run.spread([4.0]), 0.0)

    def test_seed_lists(self):
        self.assertEqual(run.parse_seeds("3-6"), [3, 4, 5, 6])
        self.assertEqual(run.parse_seeds("1,5,9"), [1, 5, 9])


class VerdictTest(unittest.TestCase):
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_clear_gain_on_lower_is_better(self):
        change = [v * 0.8 for v in self.base]
        self.assertEqual(run.verdict(self.base, change, "lower", 0.1), ("gain", 1.0))

    def test_clear_gain_on_higher_is_better(self):
        change = [v * 1.2 for v in self.base]
        self.assertEqual(run.verdict(self.base, change, "higher", 0.1)[0], "gain")

    def test_regression_beyond_bound(self):
        change = [v * 1.3 for v in self.base]
        self.assertEqual(run.verdict(self.base, change, "lower", 0.1), ("regression", 0.0))

    def test_small_move_within_bound_is_no_change(self):
        change = [v * 1.05 for v in self.base]
        self.assertEqual(run.verdict(self.base, change, "lower", 0.1)[0], "no change")

    def test_noisy_base_is_unresolved(self):
        base = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 100.0, 90.0, 110.0, 70.0]
        change = [v * 1.02 for v in base]
        self.assertEqual(run.verdict(base, change, "lower", 0.1)[0], "unresolved")

    def test_ties_count_for_neither_side(self):
        _, wins = run.verdict(self.base, list(self.base), "lower", 0.1)
        self.assertEqual(wins, 0.0)


class SpecTest(unittest.TestCase):
    spec = json.loads(run.SPEC.read_text())

    def test_names_are_well_formed_and_unique(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    def test_bounds_and_setup_metric(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)


class CompareTest(unittest.TestCase):
    def write(self, directory, seed, value):
        metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in SpecTest.spec["end_to_end"]}
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
        record = {"workload": "warm_session", "seed": seed, "result": result}
        (Path(directory) / f"warm_session-seed{seed}-trace0.json").write_text(json.dumps(record))

    def test_runs_pair_by_seed(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            for seed in range(1, 4):
                self.write(a, seed, 10.0 + seed)
                self.write(b, seed, 10.0 + seed)
            runs = run.load_runs(a)
            self.assertEqual(sorted(runs["warm_session"]), [1, 2, 3])
            with contextlib.redirect_stdout(io.StringIO()) as out:
                self.assertEqual(run.cmd_compare([a, b]), 0)
            self.assertIn("warm_session (3 paired seeds)", out.getvalue())


if __name__ == "__main__":
    unittest.main()
