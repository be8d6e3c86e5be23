#!/usr/bin/env python3
"""Unit tests for bench_diff.py — the first Python test in CTest.

Run directly (``python3 tools/test_bench_diff.py``) or through ctest
(suite name ``bench_diff_py``). The regression under test: a tier whose
``speedup`` field is absent in the previous artifact (an old-schema
``bench-results`` download) must be reported as "n/a", not crash the
report or compute a delta against a 0.0 baseline.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402


def make_doc(tiers, wall_ms=100.0):
    """A minimal BENCH_run_all.json document for the differ."""
    sweep = {
        "wall_ms": wall_ms,
        "jobs": 1,
        "bit_identical": True,
        "cells": [{"name": "cell-a"}, {"name": "cell-b"}],
        "fastforward": {
            "step1_wall_ms": 200.0,
            "ff_wall_ms": 100.0,
            "speedup": 2.0,
            "tiers": tiers,
        },
    }
    return {"sweep": sweep}


def tier(name, speedup=None, step1=10.0, ff=5.0):
    t = {"name": name, "step1_wall_ms": step1, "ff_wall_ms": ff}
    if speedup is not None:
        t["speedup"] = speedup
    return t


def run_diff(cur_doc, prev_doc=None):
    """Run bench_diff.main on temp files; return (exit code, report)."""
    with tempfile.TemporaryDirectory() as d:
        argv = ["bench_diff.py", os.path.join(d, "cur.json")]
        with open(argv[1], "w") as f:
            json.dump(cur_doc, f)
        if prev_doc is not None:
            argv.append(os.path.join(d, "prev.json"))
            with open(argv[2], "w") as f:
                json.dump(prev_doc, f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = bench_diff.main(argv)
        return rc, out.getvalue()


class FmtTests(unittest.TestCase):
    def test_absent_or_zero_baseline_is_na(self):
        self.assertEqual(bench_diff.fmt_delta(2.0, None), "n/a")
        self.assertEqual(bench_diff.fmt_delta(2.0, 0), "n/a")
        self.assertEqual(bench_diff.fmt_delta(None, 2.0), "n/a")

    def test_real_delta(self):
        self.assertEqual(bench_diff.fmt_delta(3.0, 2.0), "+50.0%")
        self.assertEqual(bench_diff.fmt_delta(1.0, 2.0), "-50.0%")

    def test_fmt_speedup(self):
        self.assertEqual(bench_diff.fmt_speedup(1.5), "1.50x")
        self.assertEqual(bench_diff.fmt_speedup(None), "n/a")


class ReportTests(unittest.TestCase):
    def test_baseline_run_without_previous(self):
        rc, out = run_diff(make_doc([tier("dual-5gbps", 2.5)]))
        self.assertEqual(rc, 0)
        self.assertIn("baseline run", out)
        self.assertIn("| dual-5gbps | 2.50x | — | n/a |", out)

    def test_absent_previous_speedup_reports_na(self):
        # The previous artifact has the tier but no speedup field: the
        # delta must be "n/a", never a percentage against 0.0.
        cur = make_doc([tier("dual-5gbps", 2.5)])
        prev = make_doc([tier("dual-5gbps", speedup=None)])
        rc, out = run_diff(cur, prev)
        self.assertEqual(rc, 0)
        row = next(l for l in out.splitlines() if "dual-5gbps" in l)
        self.assertIn("n/a", row)
        self.assertNotIn("%", row)

    def test_removed_tier_without_speedup_does_not_crash(self):
        cur = make_doc([tier("dual-5gbps", 2.5)])
        prev = make_doc(
            [tier("dual-5gbps", 2.0), tier("legacy", speedup=None)]
        )
        rc, out = run_diff(cur, prev)
        self.assertEqual(rc, 0)
        self.assertIn("| legacy | (removed) | n/a | n/a |", out)

    def test_new_tier_marked_new(self):
        cur = make_doc([tier("dual-5gbps", 2.5), tier("fresh", 1.2)])
        prev = make_doc([tier("dual-5gbps", 2.0)])
        rc, out = run_diff(cur, prev)
        self.assertEqual(rc, 0)
        row = next(l for l in out.splitlines() if "fresh" in l)
        self.assertIn("(new)", row)

    def test_zero_previous_speedup_is_na_not_division(self):
        cur = make_doc([tier("dual-5gbps", 2.5)])
        prev = make_doc([tier("dual-5gbps", 0.0)])
        rc, out = run_diff(cur, prev)
        self.assertEqual(rc, 0)
        row = next(l for l in out.splitlines() if "dual-5gbps" in l)
        self.assertIn("n/a", row)

    def test_retired_batch_block_is_ignored(self):
        # Artifacts written while run_all still had a batch-off reference
        # phase carry a sweep.batch block; it must diff without error.
        cur = make_doc([tier("dual-5gbps", 2.5)])
        prev = make_doc([tier("dual-5gbps", 2.0)])
        for doc in (cur, prev):
            doc["sweep"]["batch"] = {
                "off_wall_ms": 150.0, "on_wall_ms": 100.0, "speedup": 1.5,
                "tiers": [{"name": "dual-5gbps", "speedup": 2.0}]}
        rc, out = run_diff(cur, prev)
        self.assertEqual(rc, 0)
        self.assertIn("| dual-5gbps | 2.50x | 2.00x | +25.0% |", out)
        self.assertNotIn("batch", out.lower())

    def test_unreadable_previous_is_annotated(self):
        with tempfile.TemporaryDirectory() as d:
            cur_path = os.path.join(d, "cur.json")
            with open(cur_path, "w") as f:
                json.dump(make_doc([tier("dual-5gbps", 2.5)]), f)
            bad = os.path.join(d, "prev.json")
            with open(bad, "w") as f:
                f.write("{not json")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = bench_diff.main(["bench_diff.py", cur_path, bad])
        self.assertEqual(rc, 0)
        self.assertIn("previous run unreadable", out.getvalue())

    def test_usage_error(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = bench_diff.main(["bench_diff.py"])
        self.assertEqual(rc, 2)


if __name__ == "__main__":
    unittest.main()
