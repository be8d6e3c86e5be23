"""Tests of tools/perf_ab.py: python3 -m unittest discover -s tools"""

import contextlib
import io
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import perf_ab  # noqa: E402


class Summarize(unittest.TestCase):
    def test_median_of_pairwise_ratios(self):
        s = perf_ab.summarize([1.0, 2.0, 4.0], [0.5, 1.5, 4.4])
        # Ratios 0.5, 0.75, 1.1: the median pair, not a ratio of medians.
        self.assertAlmostEqual(s["ratio"], 0.75)
        self.assertEqual((s["won"], s["lost"], s["pairs"]), (2, 1, 3))

    def test_self_check_reads_one_and_wins_nothing(self):
        values = [1.0, 1.1, 0.9, 1.0]
        s = perf_ab.summarize(values, list(values))
        self.assertEqual(s["ratio"], 1.0)
        self.assertEqual((s["won"], s["lost"]), (0, 0))
        self.assertEqual(s["verdict"], "unresolved")

    def test_verdict_needs_nine_in_ten_pairs_and_a_gap_beyond_the_spread(self):
        a = [1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0, 1.03, 0.97]
        faster = perf_ab.summarize(a, [x * 0.8 for x in a])
        self.assertEqual(faster["verdict"], "faster")
        slower = perf_ab.summarize(a, [x * 1.2 for x in a])
        self.assertEqual(slower["verdict"], "slower")
        # 8 of 10 pairs won is not decisive, however large the gap.
        mixed = perf_ab.summarize(a, [x * 0.8 for x in a[:8]] + a[8:9] +
                                  [a[9] * 1.5])
        self.assertEqual(mixed["won"], 8)
        self.assertEqual(mixed["verdict"], "unresolved")
        # Every pair won, but by less than the parent's own spread.
        noisy = [1.0, 1.5, 0.7, 1.2, 0.9, 1.4, 0.8, 1.1, 1.3, 0.6]
        close = perf_ab.summarize(noisy, [x * 0.95 for x in noisy])
        self.assertEqual(close["won"], 10)
        self.assertEqual(close["verdict"], "unresolved")

    def test_even_pair_count_averages_the_middle_ratios(self):
        s = perf_ab.summarize([1.0] * 4, [0.7, 0.8, 0.9, 1.2])
        self.assertAlmostEqual(s["ratio"], 0.85)
        self.assertEqual(s["won"], 3)

    def test_parent_spread_is_relative_to_its_median(self):
        s = perf_ab.summarize([1.0, 1.0, 2.0, 2.0], [1.0] * 4)
        # Exclusive quartiles of 1, 1, 2, 2: 1.0 and 2.0; median 1.5.
        self.assertAlmostEqual(s["a_iqr"], 1.0 / 1.5)
        self.assertEqual(perf_ab.relative_iqr([3.0]), 0.0)

    def test_rejects_unpaired_values(self):
        with self.assertRaises(ValueError):
            perf_ab.summarize([1.0, 2.0], [1.0])
        with self.assertRaises(ValueError):
            perf_ab.summarize([], [])


class Digests(unittest.TestCase):
    def test_identical_runs_match(self):
        runs = [{"a": "1", "b": "2"}, {"a": "1", "b": "2"}]
        self.assertEqual(perf_ab.digest_mismatches(runs), [])

    def test_a_differing_cell_is_named(self):
        runs = [{"a": "1", "b": "2"}, {"a": "1", "b": "3"},
                {"a": "1", "b": "2"}]
        self.assertEqual(perf_ab.digest_mismatches(runs), ["b"])


class ReadRun(unittest.TestCase):
    DOC = {"wall_s": [1.2, 1.0, 1.1], "setup_s": [3e-4, 1e-4, 2e-4],
           "peak_rss_mb": 4.9,
           "cells": [{"name": "c1", "error": "", "out_digest": "d1"},
                     {"name": "c2", "error": "", "out_digest": "d2"}]}

    def test_keeps_the_fastest_pass_and_the_median_setup(self):
        metrics, digests = perf_ab.read_run(self.DOC, 2.5, "bin")
        self.assertEqual(metrics, {"wall_s": 1.0, "cpu_s": 2.5,
                                   "setup_s": 2e-4, "peak_rss_mb": 4.9})
        self.assertEqual(digests, {"c1": "d1", "c2": "d2"})

    def test_a_failed_cell_fails_the_run(self):
        doc = dict(self.DOC, cells=[
            {"name": "c1", "error": "", "out_digest": "d1"},
            {"name": "c2", "error": "repeated passes gave different "
                                    "outputs", "out_digest": "d2"}])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            with self.assertRaises(SystemExit) as cm:
                perf_ab.read_run(doc, 2.5, "bin")
        self.assertEqual(cm.exception.code, 2)
        self.assertIn("cell c2: repeated passes", err.getvalue())


class Output(unittest.TestCase):
    def test_a_line_per_metric_then_the_digests(self):
        s = {"ratio": 0.7831, "won": 9, "pairs": 10, "a_iqr": 0.122,
             "verdict": "faster"}
        lines = perf_ab.format_lines("service-faults",
                                     {"wall_s": s, "cpu_s": s}, [])
        self.assertEqual(lines, [
            "perf_ab service-faults wall_s: B/A 0.783 (B won 9/10, "
            "A IQR 12.2%, faster)",
            "perf_ab service-faults cpu_s: B/A 0.783 (B won 9/10, "
            "A IQR 12.2%, faster)",
            "perf_ab service-faults: digests identical"])
        self.assertEqual(perf_ab.format_lines("w", {}, ["c1", "c2"]),
                         ["perf_ab w: DIGESTS DIFFER: c1, c2"])

    def test_arguments(self):
        opts = perf_ab.parse_args(["HEAD~1", "HEAD", "--workload",
                                   "trng-ladder", "--cpu", "3"])
        self.assertEqual(opts.workload, ["trng-ladder"])
        self.assertEqual(opts.cpu, 3)
        self.assertEqual(perf_ab.parse_args(["A", "B"]).cpu, 1)
        with contextlib.redirect_stderr(io.StringIO()):
            for fixed in (["--reps", "3"], ["--pairs", "4"]):
                with self.assertRaises(SystemExit):
                    perf_ab.parse_args(["A", "B"] + fixed)

if __name__ == "__main__":
    unittest.main()
