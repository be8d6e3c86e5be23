"""Tests of perf/compare.py: python3 -m unittest discover -s perf"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402


def summary(values):
    values = sorted(values)
    n = len(values)
    return {"median": values[n // 2], "iqr": values[(3 * n) // 4] -
            values[n // 4], "values": values}


def results(wall, digest="aa", failed=0, seed=1):
    return {"seed": seed, "scale": 1, "workloads": {"w": {
        "cells_failed": failed,
        "e2e": {"wall_s": summary(wall)} if wall else {},
        "cells": {"c": {"out_digest": digest, "fp_digest": "ff"}}}}}


BENCH = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}


class Verdict(unittest.TestCase):
    def test_worse_beyond_bound(self):
        a, b = summary([1.0, 1.0, 1.01]), summary([1.2, 1.2, 1.21])
        self.assertEqual(compare.verdict(a, b, "lower", 0.1), "worse")

    def test_worse_within_bound(self):
        a, b = summary([1.0, 1.0, 1.01]), summary([1.05, 1.05, 1.06])
        self.assertEqual(compare.verdict(a, b, "lower", 0.1), "within-bound")

    def test_exactly_at_bound_is_not_worse(self):
        a, b = summary([1.0]), summary([1.25])
        self.assertEqual(compare.verdict(a, b, "lower", 0.25), "within-bound")

    def test_higher_is_better_direction(self):
        a, b = summary([100.0, 101.0, 102.0]), summary([80.0, 81.0, 82.0])
        self.assertEqual(compare.verdict(a, b, "higher", 0.1), "worse")
        self.assertEqual(compare.verdict(b, a, "higher", 0.1), "better")

    def test_gain_within_bound_is_not_better(self):
        a, b = summary([1.0, 1.0, 1.01]), summary([0.95, 0.95, 0.96])
        self.assertEqual(compare.verdict(a, b, "lower", 0.1), "within-bound")

    def test_spread_wider_than_bound_is_unresolved(self):
        a, b = summary([1.0, 1.3, 1.6]), summary([1.1, 1.4, 1.7])
        self.assertEqual(compare.verdict(a, b, "lower", 0.1), "unresolved")

    def test_wide_spread_but_every_run_better(self):
        a, b = summary([2.0, 2.5, 3.0]), summary([1.0, 1.3, 1.6])
        self.assertEqual(compare.verdict(a, b, "lower", 0.1), "better")

    def test_absolute_slack_forgives_small_changes(self):
        a, b = summary([0.0001]), summary([0.0002])
        self.assertEqual(compare.verdict(a, b, "lower", 0.25, 0.002),
                         "within-bound")
        self.assertEqual(compare.verdict(a, b, "lower", 0.25), "worse")

    def test_missing_or_zero_is_na(self):
        self.assertEqual(compare.verdict(None, summary([1.0]), "lower", 0.1),
                         "n/a")
        self.assertEqual(compare.verdict(summary([1.0]), None, "lower", 0.1),
                         "n/a")
        self.assertEqual(compare.verdict(summary([0.0]), summary([1.0]),
                                         "lower", 0.1), "n/a")


class Compare(unittest.TestCase):
    def test_same_results_pass(self):
        rows, failures = compare.compare(results([1.0]), results([1.0]), BENCH)
        self.assertEqual(failures, [])
        self.assertEqual(rows[0][-1], "within-bound")

    def test_missing_metric_is_na_row(self):
        rows, failures = compare.compare(results([1.0]), results(None), BENCH)
        self.assertEqual(rows[0][-1], "n/a")
        self.assertEqual(failures, [])

    def test_digest_mismatch_fails(self):
        _, failures = compare.compare(results([1.0]),
                                      results([1.0], digest="bb"), BENCH)
        self.assertEqual(failures, ["w c: out_digest differs"])

    def test_digests_of_other_seeds_are_not_compared(self):
        _, failures = compare.compare(results([1.0]),
                                      results([1.0], digest="bb", seed=2),
                                      BENCH)
        self.assertEqual(failures, [])

    def test_failed_cells_fail(self):
        rows, failures = compare.compare(results([1.0]),
                                         results([1.0], failed=2), BENCH)
        self.assertIn(("w", "cells_failed", "", "2", "", "worse"), rows)
        self.assertEqual(len(failures), 1)

    def test_main_exit_codes(self):
        with tempfile.TemporaryDirectory() as d:
            paths = [Path(d) / n for n in ("a.json", "b.json", "c.json")]
            paths[0].write_text(json.dumps(results([1.0, 1.0, 1.0])))
            paths[1].write_text(json.dumps(results([1.0, 1.0, 1.0])))
            paths[2].write_text(json.dumps(results([1.5, 1.5, 1.5])))
            argv = ["compare.py", str(paths[0])]
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(compare.main(argv + [str(paths[1])]), 0)
                self.assertEqual(compare.main(argv + [str(paths[2])]), 1)


if __name__ == "__main__":
    unittest.main()
