#!/usr/bin/env python3
"""Performance benchmark of the DR-STRaNGe simulator.

Builds perf/perfbench against the simulator library (into .bench_build/),
runs every workload in its own child process, one at a time and on one
thread, checks every cell's outputs, and prints each metric as
`workload metric value unit`. The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

  python3 perf/run.py [--seed N] [--reps 7] [--workload NAME]
                      [--traced-only | --e2e-only | --trace 0|1]
                      [--seconds S] [--out DIR] [--regen-golden] [--smoke]

Exits non-zero when a cell fails (an error, outputs that differ between
passes or between the sweep and the directly built system, or a
mismatch against perf/golden/seed-1.json at seed 1). See perf/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
BUILD = ROOT / ".bench_build"
GOLDEN = PERF / "golden" / "seed-1.json"
WORKLOADS = ["dual-5gbps", "trng-ladder", "multicore-8", "service-faults"]
# End-to-end metrics and their units; bounds live in BENCHMARK.json.
E2E_UNITS = {
    "wall_s": "s",
    "sim_mcycles_per_s": "Mcycle/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cells_failed": "count",
}
SMOKE_SCALE = 50
CHILD_TIMEOUT_S = 900


def fail(message):
    print(f"perf: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; output only on failure."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(PERF), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--parallel", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            fail("build failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def host():
    """The hardware the numbers were measured on."""
    model = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"cpu": model, "cpus": os.cpu_count()}


def child_env():
    """The simulator reads DS_* switches (fast-forward, lockstep, caches,
    jobs); the benchmark always measures the defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DS_")}


def run_child(binary, args):
    proc = subprocess.run([str(binary)] + args, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"perfbench {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    """Median with its spread and sample count."""
    quartiles = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "iqr": quartiles[2] - quartiles[0],
            "n": len(values), "values": values}


def e2e_metrics(doc, failed):
    walls = doc["wall_s"]
    rates = [c / 1e6 / w for c, w in zip(doc["bus_cycles"], walls)]
    metrics = {
        "wall_s": summary(walls),
        "sim_mcycles_per_s": summary(rates),
        "setup_s": summary(doc["setup_s"]),
        "peak_rss_mb": summary([doc["peak_rss_mb"]]),
        "cells_failed": summary([failed]),
    }
    for name, m in metrics.items():
        m["unit"] = E2E_UNITS[name]
    return metrics


def check_cells(e2e, traced, golden):
    """Both modes' cells merged by name, each with its list of failures."""
    cells, digests = {}, {}
    for mode, doc in (("e2e", e2e), ("traced", traced)):
        if doc is None:
            continue
        for c in doc["cells"]:
            cell = cells.setdefault(c["name"], {"failures": []})
            if c["error"]:
                cell["failures"].append(f"{mode}: {c['error']}")
            cell.update((k, v) for k, v in c.items()
                        if k not in ("name", "error", "out_digest"))
            digests.setdefault(c["name"], []).append(c["out_digest"])
    for name, cell in cells.items():
        if len(set(digests[name])) > 1:
            cell["failures"].append("e2e and traced outputs differ")
        cell["out_digest"] = digests[name][0]
        if golden is None:
            continue
        want = golden.get(name)
        if want is None:
            cell["failures"].append("no golden entry")
            continue
        for key in ("out_digest", "fp_digest", "headline"):
            have = cell.get(key)
            if have is not None and want.get(key) is not None \
                    and have != want[key]:
                cell["failures"].append(f"{key} differs from golden")
    return cells


def run_workload(binary, workload, opts, golden):
    common = ["--seed", str(opts.seed), "--scale", str(opts.scale)]
    if opts.seconds:
        common += ["--seconds", str(opts.seconds)]
    e2e = traced = None
    if opts.e2e:
        e2e = run_child(binary, ["e2e", workload, *common,
                                 "--reps", str(opts.reps)])
    if opts.traced:
        opts.out.mkdir(parents=True, exist_ok=True)
        traced = run_child(binary, [
            "traced", workload, *common,
            "--trace-out", str(opts.out / f"trace-{workload}.json"),
            "--tape-dir", str(opts.out / "tapes")])
    cells = check_cells(e2e, traced, golden.get(workload, {})
                        if golden is not None else None)
    failed = sum(1 for c in cells.values() if c["failures"])
    result = {"cells_attempted": len(cells), "cells_failed": failed,
              "cells": cells}
    if e2e is not None:
        result["e2e"] = e2e_metrics(e2e, failed)
    if traced is not None:
        result["layers"] = traced["layers"]
        result["trace_rounds"] = traced["rounds"]
    return result


def print_metrics(workload, result):
    for name, m in result.get("e2e", {}).items():
        print(f"{workload} {name} {m['median']:.6g} {m['unit']}")
    for name, m in result.get("layers", {}).items():
        value = m.get("value")
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{workload} {name} {shown} {m['unit']}")
    for name, cell in result["cells"].items():
        for why in cell["failures"]:
            print(f"# {workload} {name} FAILED: {why}")


def regen_golden(results):
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    cells = golden.setdefault("cells", {})
    for workload, result in results.items():
        entries = cells.setdefault(workload, {})
        for name, cell in result["cells"].items():
            entry = entries.setdefault(name, {})
            for key in ("headline", "out_digest", "fp_digest"):
                if cell.get(key):
                    entry[key] = cell[key]
    golden["seed"] = 1
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"# wrote {GOLDEN.relative_to(ROOT)}", file=sys.stderr)


def validate(doc):
    """Schema of results.json, as compare.py reads it."""
    assert isinstance(doc["seed"], int) and isinstance(doc["scale"], int)
    for workload, r in doc["workloads"].items():
        assert workload in WORKLOADS, workload
        assert r["cells_attempted"] >= 1
        assert 0 <= r["cells_failed"] <= r["cells_attempted"]
        for name, m in r.get("e2e", {}).items():
            assert m["unit"] == E2E_UNITS[name]
            assert m["n"] == len(m["values"]) >= 1
            assert m["min"] <= m["median"] <= m["max"] and m["iqr"] >= 0
        for m in r.get("layers", {}).values():
            assert isinstance(m["unit"], str)
            assert isinstance(m.get("value", 0), (int, float))
        for cell in r["cells"].values():
            assert isinstance(cell["failures"], list)
            assert isinstance(cell["out_digest"], str)


def contract_metrics(results, bench, opts):
    """The metrics BENCHMARK.json declares for the modes that ran."""
    declared = []
    if opts.e2e:
        declared += bench["end_to_end"]
    if opts.traced:
        declared += bench["per_layer"]
    out = {}
    for workload, result in results.items():
        measured = {n: {"value": m["median"], "unit": m["unit"]}
                    for n, m in result.get("e2e", {}).items()}
        measured.update(result.get("layers", {}))
        for d in declared:
            m = measured.get(d["name"])
            if m is None or m.get("value") is None:
                continue
            if m["unit"] != d["unit"]:
                fail(f"{d['name']} is measured in {m['unit']}, "
                     f"BENCHMARK.json says {d['unit']}")
            key = d["name"] if len(results) == 1 else f"{workload}/{d['name']}"
            out[key] = {"value": m["value"], "unit": m["unit"]}
    return out


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--reps", type=int, default=7,
                   help="timed e2e passes after one warm-up pass")
    p.add_argument("--workload", choices=WORKLOADS)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--traced-only", action="store_true")
    mode.add_argument("--e2e-only", action="store_true")
    mode.add_argument("--trace", type=int, choices=[0, 1],
                      help="0 = the e2e run only, 1 = the traced run only")
    p.add_argument("--seconds", type=float, default=0.0,
                   help="measure each run for this long instead of "
                        "--reps passes and one traced round")
    p.add_argument("--out", type=Path, default=PERF / "out")
    p.add_argument("--regen-golden", action="store_true")
    p.add_argument("--smoke", action="store_true",
                   help="every workload at 1/50 size, one rep")
    opts = p.parse_args()
    opts.e2e = not (opts.traced_only or opts.trace == 1)
    opts.traced = not (opts.e2e_only or opts.trace == 0)
    opts.scale = SMOKE_SCALE if opts.smoke else 1
    if opts.smoke:
        opts.reps, opts.seconds, opts.workload = 1, 0.0, None
    if opts.regen_golden and (opts.seed != 1 or opts.smoke):
        p.error("--regen-golden needs the full-size run at --seed 1")
    return opts


def main():
    opts = parse_args()
    start = time.monotonic()
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    golden = None
    if opts.seed == 1 and opts.scale == 1 and not opts.regen_golden:
        if not GOLDEN.exists():
            fail(f"{GOLDEN} is missing; run with --regen-golden")
        golden = json.loads(GOLDEN.read_text())["cells"]

    results = {}
    for workload in [opts.workload] if opts.workload else WORKLOADS:
        results[workload] = run_workload(binary, workload, opts, golden)
        print_metrics(workload, results[workload])
        sys.stdout.flush()

    doc = {"schema": 1, "seed": opts.seed, "scale": opts.scale,
           "reps": opts.reps, "seconds": opts.seconds, "host": host(),
           "golden_checked": golden is not None, "workloads": results}
    validate(doc)
    opts.out.mkdir(parents=True, exist_ok=True)
    (opts.out / "results.json").write_text(json.dumps(doc, indent=1) + "\n")
    if opts.regen_golden:
        regen_golden(results)
    attempted = sum(r["cells_attempted"] for r in results.values())
    failed = sum(r["cells_failed"] for r in results.values())
    print(f"# {attempted - failed}/{attempted} cells ok in "
          f"{time.monotonic() - start:.1f} s; results in "
          f"{opts.out / 'results.json'}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": contract_metrics(results, bench, opts)}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
