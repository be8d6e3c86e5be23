#!/usr/bin/env python3
"""A/B host-time comparison of two revisions on the perf/ workloads.

Exports each revision with `git archive` into a work directory, builds
that revision's own perf/perfbench in Release, then runs `perfbench e2e
WORKLOAD --reps 5` for both sides one after the other on one pinned CPU
(`taskset -c K`), alternating which side goes first, for 10 pairs. From
each run it keeps four metrics, all lower-is-better: `wall_s` (the
minimum of its timed passes), `cpu_s` (the child's user + system time,
from getrusage), `setup_s` (the median of its setup samples) and
`peak_rss_mb`. Per workload and metric it prints the median B/A ratio
over the pairs, the pairs B won, the spread of A's own runs, and a
verdict: `faster` or `slower` when B wins or loses at least 9 in 10
pairs and the median ratio is further from 1 than A's relative IQR,
else `unresolved`; then whether the output digests agree:

  perf_ab service-faults wall_s: B/A 0.783 (B won 9/10, A IQR 12.2%, \
faster)
  ...
  perf_ab service-faults: digests identical

Exits 1 when any cell's `out_digest` differs between the two sides (or
between runs of one side), 2 when a build or a run fails, a cell
included. `REV REV` is the self-check: every ratio should read ~1.000
with pairs split.

  python3 tools/perf_ab.py REV_A REV_B [--workload W ...] [--cpu 1]
                           [--work-dir DIR]
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["dual-5gbps", "trng-ladder", "multicore-8", "service-faults"]
METRICS = ["wall_s", "cpu_s", "setup_s", "peak_rss_mb"]
REPS = 5
PAIRS = 10
CHILD_TIMEOUT_S = 1800


def fail(message):
    print(f"perf_ab: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, **kwargs):
    proc = subprocess.run(cmd, capture_output=True, text=True, **kwargs)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("failed: " + " ".join(str(c) for c in cmd))
    return proc.stdout


def resolve(rev):
    return run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                rev + "^{commit}"]).strip()


def build(commit, work):
    """Export @p commit into @p work and build its perfbench there."""
    src = work / commit[:12]
    binary = src / ".bench_build" / "perfbench"
    if binary.exists():
        return binary
    src.mkdir(parents=True, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit],
                               stdout=subprocess.PIPE)
    run(["tar", "-x", "-C", str(src)], stdin=archive.stdout)
    if archive.wait() != 0:
        fail(f"git archive {commit} failed")
    run(["cmake", "-S", str(src / "perf"), "-B", str(src / ".bench_build"),
         "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", str(src / ".bench_build"), "--parallel", "2"])
    return binary


def child_env():
    """perfbench measures the simulator's defaults: drop DS_* switches."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DS_")}


def run_side(binary, workload, opts):
    """One perfbench e2e run: ({metric: value}, {cell: out_digest})."""
    cmd = ["taskset", "-c", str(opts.cpu), str(binary), "e2e", workload,
           "--reps", str(REPS)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = run(cmd, cwd=binary.parent, env=child_env(),
              timeout=CHILD_TIMEOUT_S)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + \
        (after.ru_stime - before.ru_stime)
    return read_run(json.loads(out.strip().splitlines()[-1]), cpu, binary)


def read_run(doc, cpu, binary):
    """The metrics and digests of one perfbench e2e document; a failed
    cell (an error, or passes that disagreed) fails the comparison."""
    for c in doc["cells"]:
        if c["error"]:
            fail(f"{binary}: cell {c['name']}: {c['error']}")
    metrics = {"wall_s": min(doc["wall_s"]), "cpu_s": cpu,
               "setup_s": statistics.median(doc["setup_s"]),
               "peak_rss_mb": doc["peak_rss_mb"]}
    return metrics, {c["name"]: c["out_digest"] for c in doc["cells"]}


def relative_iqr(values):
    """Interquartile range as a fraction of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def summarize(a_values, b_values):
    """Pairwise B/A ratios of one metric (lower is better): the median
    ratio, the pairs B won and A's own relative spread."""
    if not a_values or len(a_values) != len(b_values):
        raise ValueError("need one A and one B value per pair")
    ratios = [b / a for a, b in zip(a_values, b_values)]
    s = {"ratio": statistics.median(ratios),
         "won": sum(1 for r in ratios if r < 1.0),
         "lost": sum(1 for r in ratios if r > 1.0),
         "pairs": len(ratios),
         "a_iqr": relative_iqr(a_values)}
    decisive = 0.9 * s["pairs"]
    if s["won"] >= decisive and 1.0 - s["ratio"] > s["a_iqr"]:
        s["verdict"] = "faster"
    elif s["lost"] >= decisive and s["ratio"] - 1.0 > s["a_iqr"]:
        s["verdict"] = "slower"
    else:
        s["verdict"] = "unresolved"
    return s


def digest_mismatches(runs):
    """Cells whose out_digest is not the same in every run."""
    seen = {}
    for digests in runs:
        for cell, digest in digests.items():
            seen.setdefault(cell, set()).add(digest)
    return sorted(cell for cell, ds in seen.items() if len(ds) > 1)


def format_lines(workload, summaries, mismatched):
    """One line per metric, then the digest verdict."""
    lines = [f"perf_ab {workload} {name}: B/A {s['ratio']:.3f} (B won "
             f"{s['won']}/{s['pairs']}, A IQR {100 * s['a_iqr']:.1f}%, "
             f"{s['verdict']})" for name, s in summaries.items()]
    lines.append(f"perf_ab {workload}: " +
                 ("digests identical" if not mismatched else
                  "DIGESTS DIFFER: " + ", ".join(mismatched)))
    return lines


def compare(binaries, workload, opts):
    samples = {"A": {m: [] for m in METRICS}, "B": {m: [] for m in METRICS}}
    runs = []
    for pair in range(PAIRS):
        order = ("A", "B") if pair % 2 == 0 else ("B", "A")
        for side in order:
            metrics, digests = run_side(binaries[side], workload, opts)
            for m in METRICS:
                samples[side][m].append(metrics[m])
            runs.append(digests)
    summaries = {m: summarize(samples["A"][m], samples["B"][m])
                 for m in METRICS}
    mismatched = digest_mismatches(runs)
    print("\n".join(format_lines(workload, summaries, mismatched)),
          flush=True)
    return not mismatched


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("rev_a", help="the parent side (A)")
    p.add_argument("rev_b", help="the change side (B)")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="repeatable; default: all four")
    p.add_argument("--cpu", type=int, default=1, help="CPU to pin to")
    p.add_argument("--work-dir", type=Path,
                   help="where the revisions are built (kept; default: "
                        "a temporary directory, removed)")
    return p.parse_args(argv)


def main():
    opts = parse_args()
    commits = {"A": resolve(opts.rev_a), "B": resolve(opts.rev_b)}
    with tempfile.TemporaryDirectory(prefix="perf_ab-") as tmp:
        work = opts.work_dir or Path(tmp)
        binaries = {side: build(c, work.resolve())
                    for side, c in commits.items()}
        ok = True
        for workload in opts.workload or WORKLOADS:
            ok = compare(binaries, workload, opts) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
