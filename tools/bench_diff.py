#!/usr/bin/env python3
"""Diff two BENCH_run_all.json files and print a markdown report.

Used by the CI bench-diff job: the current run's sweep record is
compared against the one downloaded from the previous successful run's
`bench-results` artifact, and the per-tier fast-forward speedup deltas
land in the job summary. Exit code is always 0 — perf deltas on shared
CI runners are informational, never a gate.

Usage:
    bench_diff.py CURRENT.json [PREVIOUS.json]

With no previous file (the first run of a repository, or an expired
artifact) the report simply tabulates the current run.
"""

import json
import sys


def load_sweep(path):
    with open(path) as f:
        return json.load(f)["sweep"]


def tier_map(sweep):
    if sweep is None:
        return {}
    tiers = sweep.get("fastforward", {}).get("tiers", [])
    return {t["name"]: t for t in tiers}


def fmt_delta(cur, prev):
    # An absent field (old-schema artifact) or a zero baseline carries
    # no information — "n/a", never a delta computed against 0.0.
    if cur is None or prev is None or prev == 0:
        return "n/a"
    pct = 100.0 * (cur - prev) / prev
    return f"{pct:+.1f}%"


def fmt_speedup(value):
    return f"{value:.2f}x" if value is not None else "n/a"


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    cur = load_sweep(argv[1])
    prev = None
    if len(argv) == 3:
        try:
            prev = load_sweep(argv[2])
        except (OSError, KeyError, json.JSONDecodeError) as e:
            print(f"<!-- previous run unreadable: {e} -->")

    cur_tiers = tier_map(cur)
    prev_tiers = tier_map(prev)

    print("## Bench diff vs previous run")
    print()
    if prev is None:
        print("_No previous `bench-results` artifact found — baseline run._")
        print()
    print("| tier | ff speedup | previous | delta | step-1 wall (ms) | ff wall (ms) |")
    print("|------|------------|----------|-------|------------------|--------------|")
    rows = list(cur_tiers.values())
    ff = cur.get("fastforward")
    if ff:
        rows.append({**ff, "name": "**overall**"})
    for t in rows:
        p = prev_tiers.get(t["name"])
        if t["name"] == "**overall**" and prev:
            p = prev.get("fastforward")
        prev_speedup = p.get("speedup") if p else None
        # A tier with no counterpart in the previous run is new, not a
        # regression; mark it rather than leaving the columns blank.
        if prev_speedup is not None:
            prev_txt = fmt_speedup(prev_speedup)
        elif prev is not None and p is None and t["name"] != "**overall**":
            prev_txt = "(new)"
        else:
            prev_txt = "—"
        cur_speedup = t.get("speedup")
        print(
            "| {name} | {speedup} | {prev} | {delta} "
            "| {step1_wall_ms:.1f} | {ff_wall_ms:.1f} |".format(
                name=t["name"],
                speedup=fmt_speedup(cur_speedup),
                prev=prev_txt,
                delta=fmt_delta(cur_speedup, prev_speedup),
                step1_wall_ms=t.get("step1_wall_ms", 0.0),
                ff_wall_ms=t.get("ff_wall_ms", 0.0),
            )
        )
    # Tiers only in the previous run would otherwise vanish silently.
    for name in sorted(set(prev_tiers) - set(cur_tiers)):
        p = prev_tiers[name]
        print(
            "| {name} | (removed) | {speedup} | n/a | — | — |".format(
                name=name, speedup=fmt_speedup(p.get("speedup"))
            )
        )
    print()

    prev_wall = prev.get("wall_ms") if prev else None
    print(
        f"Parallel sweep: {len(cur['cells'])} cells in "
        f"{cur['wall_ms']:.1f} ms on {cur['jobs']} job(s) "
        f"({fmt_delta(cur['wall_ms'], prev_wall)} wall vs previous); "
        f"bit-identical: **{cur['bit_identical']}**"
    )
    if prev:
        cur_names = {c["name"] for c in cur["cells"]}
        prev_names = {c["name"] for c in prev["cells"]}
        added = sorted(cur_names - prev_names)
        removed = sorted(prev_names - cur_names)
        if added:
            print()
            print(f"New cells ({len(added)}): " + ", ".join(added[:10]))
        if removed:
            print()
            print(f"Removed cells ({len(removed)}): " + ", ".join(removed[:10]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
