#!/usr/bin/env python3
"""Compare two results files written by perf/run.py.

  python3 perf/compare.py A.json B.json

A is the baseline, B the candidate. One row per (workload, end-to-end
metric), with the bound and direction BENCHMARK.json declares:

  better        B beats A by more than the bound
  worse         B is worse than A by more than the bound
  within-bound  neither of the above
  unresolved    the spread of A or B is wider than the bound, and not
                every run of B beats every run of A
  n/a           the metric is missing from A or B

Exits 1 when a metric is worse, B has failed cells, or a cell's output
digest differs between A and B (checked when both ran the same seed and
scale); 0 otherwise.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Changes smaller than these are never regressions, whatever the share.
ABSOLUTE_SLACK = {"setup_s": 0.002, "peak_rss_mb": 2.0}


def relative_spread(m):
    return m["iqr"] / abs(m["median"])


def verdict(a, b, better, bound, slack=0.0):
    """Verdict for one metric; a and b are run.py summaries or None."""
    if not a or not b or not a["median"] or not b["median"]:
        return "n/a"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"])
    share = worse_by / abs(a["median"])
    spread = max(relative_spread(a), relative_spread(b))
    if spread > bound:
        beats_all = all(sign * (vb - va) < 0
                        for va in a["values"] for vb in b["values"])
        return "better" if beats_all else "unresolved"
    if share > bound and worse_by > slack:
        return "worse"
    if -share > bound and -worse_by > slack:
        return "better"
    return "within-bound"


def digest_mismatches(a, b):
    """(workload, cell, key) for every digest both files hold that differs."""
    out = []
    for workload, ra in a["workloads"].items():
        rb = b["workloads"].get(workload)
        if rb is None:
            continue
        for name, ca in ra["cells"].items():
            cb = rb["cells"].get(name, {})
            for key in ("out_digest", "fp_digest"):
                if ca.get(key) and cb.get(key) and ca[key] != cb[key]:
                    out.append((workload, name, key))
    return out


def compare(a, b, bench):
    """Rows of (workload, metric, a, b, change, verdict) and the failures."""
    rows, failures = [], []
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        ea = a["workloads"].get(workload, {}).get("e2e", {})
        eb = b["workloads"].get(workload, {}).get("e2e", {})
        for m in bench["end_to_end"]:
            name = m["name"]
            ma, mb = ea.get(name), eb.get(name)
            v = verdict(ma, mb, m["better"], m["bound"],
                        ABSOLUTE_SLACK.get(name, 0.0))
            change = (f"{(mb['median'] - ma['median']) / ma['median']:+.1%}"
                      if v != "n/a" else "")
            rows.append((workload, name,
                         f"{ma['median']:.6g}" if ma else "n/a",
                         f"{mb['median']:.6g}" if mb else "n/a", change, v))
            if v == "worse":
                failures.append(f"{workload} {name} is worse")
        failed = b["workloads"].get(workload, {}).get("cells_failed")
        if failed:
            rows.append((workload, "cells_failed", "", str(failed), "",
                         "worse"))
            failures.append(f"{workload} has {failed} failed cells")
    if (a["seed"], a["scale"]) == (b["seed"], b["scale"]):
        for workload, cell, key in digest_mismatches(a, b):
            failures.append(f"{workload} {cell}: {key} differs")
    return rows, failures


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, failures = compare(a, b, bench)
    header = ("workload", "metric", "A", "B", "change", "verdict")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(6)]
    for r in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
        print("# seeds or scales differ: digests not compared")
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
