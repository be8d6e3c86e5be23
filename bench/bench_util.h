/**
 * @file
 * Shared helpers for the figure-reproduction bench binaries: standard
 * base configuration, environment overrides, and row formatting.
 */

#ifndef DSTRANGE_BENCH_BENCH_UTIL_H
#define DSTRANGE_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/env_util.h"
#include "common/json_writer.h"
#include "drstrange.h"

namespace bench {

/**
 * Base configuration builder for all figure benches, the single entry
 * point shared with the CLI and run_all. The per-core instruction
 * budget is scaled down from the paper's 200M-instruction SimPoints so
 * the whole harness runs in minutes; override with DS_INSTR_BUDGET.
 * DS_CONFIG may hold extra key=value config text (see
 * sim/config_text.h) applied on top — e.g.
 * DS_CONFIG="mechanism=quac buffer-entries=32".
 */
inline dstrange::sim::SimulationBuilder
baseBuilder()
{
    dstrange::sim::SimulationBuilder b;
    b.instrBudget(dstrange::envU64("DS_INSTR_BUDGET", 200000));
    if (const char *text = std::getenv("DS_CONFIG")) {
        try {
            b.applyText(text);
        } catch (const std::exception &e) {
            std::cerr << "DS_CONFIG: " << e.what() << "\n";
            std::exit(2);
        }
    }
    return b;
}

/** Base configuration for all figure benches (baseBuilder()'s config). */
inline dstrange::sim::SimConfig
baseConfig()
{
    return baseBuilder().config();
}

/**
 * Parallel sweep executor over the standard bench base configuration.
 * Worker count comes from DS_JOBS (default: hardware_concurrency), so
 * `DS_JOBS=1 ./figNN` reproduces the historical serial execution —
 * with bit-identical metric values, since every cell is a pure
 * function of its configuration and workload spec.
 */
inline dstrange::sim::SweepRunner
baseSweepRunner()
{
    return baseBuilder().buildSweepRunner();
}

/**
 * The multi-core sweep workload set shared by fig07/fig08: the four
 * 4-core groups followed by every L/M/H category group at 4, 8, and 16
 * cores. When @p group_labels is non-null it receives the label of each
 * multi-core category group in sweep order (e.g. "L(8)"), so callers
 * need not re-draw the groups just to name their table rows.
 */
inline std::vector<dstrange::workloads::WorkloadSpec>
multiCoreSweepMixes(std::uint64_t seed,
                    std::vector<std::string> *group_labels = nullptr)
{
    auto mixes = dstrange::workloads::fourCoreGroups(seed);
    for (unsigned cores : {4u, 8u, 16u}) {
        for (char cat : {'L', 'M', 'H'}) {
            const auto group = dstrange::workloads::multiCoreCategoryGroup(
                cores, cat, seed);
            if (group_labels)
                group_labels->push_back(group.front().group);
            mixes.insert(mixes.end(), group.begin(), group.end());
        }
    }
    return mixes;
}

/**
 * Run a grid of cells and exit(1) on the first failed cell (after
 * reporting every failure), so a figure bench can never print a
 * partial table and still exit 0.
 */
inline std::vector<dstrange::sim::SweepRunner::CellResult>
runCellsOrExit(dstrange::sim::SweepRunner &sweep,
               const std::vector<dstrange::sim::SweepRunner::Cell> &cells)
{
    auto results = sweep.run(cells);
    bool failed = false;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok) {
            std::cerr << "cell '" << cells[i].spec.name << "' ("
                      << (cells[i].design.empty() ? "explicit config"
                                                  : cells[i].design)
                      << ") failed: " << results[i].error << "\n";
            failed = true;
        }
    }
    if (failed)
        std::exit(1);
    return results;
}

/** Format a ratio with 3 decimals. */
inline std::string
num(double v, int precision = 3)
{
    return dstrange::TablePrinter::num(v, precision);
}

/** Print the standard bench banner. */
inline void
banner(const std::string &what, const std::string &paper_ref)
{
    std::cout << "=== " << what << " ===\n"
              << "Reproduces: " << paper_ref << "\n\n";
}

/** Wall-clock stopwatch for perf records. */
class WallTimer
{
  public:
    WallTimer() : start(std::chrono::steady_clock::now()) {}

    /** Milliseconds elapsed since construction (or the last reset). */
    double elapsedMs() const
    {
        const auto d = std::chrono::steady_clock::now() - start;
        return std::chrono::duration<double, std::milli>(d).count();
    }

    void reset() { start = std::chrono::steady_clock::now(); }

  private:
    std::chrono::steady_clock::time_point start;
};

/**
 * One benchmark execution in a machine-readable result file: the bench
 * name, how long it ran, whether it succeeded, and any named metrics
 * the bench chose to report.
 */
struct BenchRecord {
    std::string name;
    double wallMs = 0.0;
    int exitCode = 0;
    std::vector<std::pair<std::string, double>> metrics;
};

/** One sweep cell in the perf record: design x workload, its worker
 *  wall-clock, and the metric values the bit-identity check diffs. */
struct SweepCellRecord {
    std::string name; ///< "<design>/<workload>".
    double wallMs = 0.0;
    bool ok = false;
    /** Owned by a different shard; not executed by this process. */
    bool skipped = false;
    std::string error; ///< Exception message when !ok.
    /** Execution-hygiene tag from SweepRunner::CellResult::outcome:
     *  ok / retried / timeout / error / skipped. */
    std::string outcome = "ok";
    std::vector<std::pair<std::string, double>> metrics;
};

/** One record→replay comparison cell of the trace tier. */
struct TraceCellRecord {
    std::string name;        ///< Scheduler (or other knob) label.
    double liveMs = 0.0;     ///< Recorded live run wall-clock.
    double replayMs = 0.0;   ///< Replay run wall-clock.
    bool bitIdentical = false; ///< MC-side metrics matched exactly.
    std::uint64_t records = 0; ///< Requests replayed from the tape.

    double speedup() const
    {
        return replayMs > 0.0 ? liveMs / replayMs : 0.0;
    }
};

/** Aggregate of the run_all trace tier: each cell records a live run,
 *  replays the tape into an identically-configured controller, and
 *  diffs the controller-side metrics — replay must be bit-identical
 *  and materially faster (no core or service model executes). */
struct TraceTierRecord {
    double liveMs = 0.0;
    double replayMs = 0.0;
    bool bitIdentical = true;
    std::vector<TraceCellRecord> cells;

    double speedup() const
    {
        return replayMs > 0.0 ? liveMs / replayMs : 0.0;
    }
};

/** Fast-forward speedup of one workload tier of the sweep grid. */
struct FfTierRecord {
    std::string name;       ///< Tier label (e.g. "trng-sweep").
    double step1Ms = 0.0;   ///< Serial wall, cycle-by-cycle stepping.
    double ffMs = 0.0;      ///< Serial wall, event-driven fast-forward.

    double speedup() const { return ffMs > 0.0 ? step1Ms / ffMs : 0.0; }
};

/** One shard's contribution inside a merged sweep record. */
struct ShardSummaryRecord {
    unsigned index = 0;
    unsigned jobs = 1;
    double wallMs = 0.0;
    double serialWallMs = 0.0;
    double step1WallMs = 0.0;
    bool bitIdentical = true;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheStores = 0;
};

/**
 * Aggregate record of run_all's in-process parallel sweep: the worker
 * count, the parallel sweep's end-to-end wall-clock, a serial
 * reference run's wall-clock (measured with a fresh alone-run cache,
 * so the comparison is fair), whether the two runs' metric values were
 * bit-identical, and the resulting measured serial-vs-parallel
 * speedup — the perf-trajectory datapoint the roadmap asks for.
 *
 * The fast-forward comparison re-runs the sweep serially with
 * DS_FAST_FORWARD=0 (cycle-by-cycle stepping): step1WallMs vs
 * serialWallMs is the cycle-skipping engine's wall-clock win, overall
 * and per workload tier, and its metric values must also be
 * bit-identical (they feed the same bitIdentical verdict).
 *
 * Cross-process sharding: a `run_all --shard I/N` invocation runs only
 * the cells its shard owns (the rest are `skipped`) and emits a
 * fragment named BENCH_run_all.shard-I.json; `run_all --merge-shards`
 * joins N fragments back into the canonical BENCH_run_all.json
 * (merged == true, per-shard summaries in `shards`), whose per-cell
 * metrics are bit-identical to a single-process run.
 */
struct SweepRecord {
    unsigned jobs = 1;
    double wallMs = 0.0;       ///< Parallel sweep wall-clock.
    double serialWallMs = 0.0; ///< One-thread reference wall-clock.
    double step1WallMs = 0.0;  ///< One-thread wall with DS_FAST_FORWARD=0.
    double cellsTotalMs = 0.0; ///< Sum of per-cell wall times.
    bool bitIdentical = true;  ///< Serial == parallel == step-1 metrics.
    unsigned shardIndex = 0;   ///< This process's shard (fragment only).
    unsigned shardCount = 1;   ///< >1 marks a shard fragment.
    bool merged = false;       ///< Assembled by --merge-shards.
    bool cacheEnabled = false; ///< Persistent alone-run cache in use.
    std::string cacheDir;
    std::uint64_t cacheHits = 0;   ///< Baselines served from disk.
    std::uint64_t cacheMisses = 0; ///< Baselines recomputed.
    std::uint64_t cacheStores = 0; ///< Baselines written to disk.
    std::vector<ShardSummaryRecord> shards; ///< Merged records only.
    std::vector<FfTierRecord> ffTiers; ///< Per-tier ff speedups.
    bool hasTrace = false;      ///< Trace tier ran (unsharded only).
    TraceTierRecord trace;      ///< Record→replay comparison tier.
    std::vector<SweepCellRecord> cells;

    double speedup() const
    {
        return wallMs > 0.0 ? serialWallMs / wallMs : 0.0;
    }

    /** Fast-forward wall-clock speedup on the (serial) sweep phase. */
    double ffSpeedup() const
    {
        return serialWallMs > 0.0 ? step1WallMs / serialWallMs : 0.0;
    }
};

/**
 * The controller-side metric values a replay run must reproduce
 * bit-identically from the recorded live run. Core-side statistics are
 * deliberately absent: replay has no cores.
 */
inline std::vector<std::pair<std::string, double>>
mcMetrics(const dstrange::sim::System &sys,
          const dstrange::sim::SimConfig &cfg)
{
    const dstrange::mem::McStats &m = sys.mc().stats();
    std::vector<std::pair<std::string, double>> out = {
        {"bus_cycles", static_cast<double>(sys.busCycles())},
        {"read_requests", static_cast<double>(m.readRequests)},
        {"write_requests", static_cast<double>(m.writeRequests)},
        {"rng_requests", static_cast<double>(m.rngRequests)},
        {"rng_from_buffer", static_cast<double>(m.rngServedFromBuffer)},
        {"rng_jobs_completed", static_cast<double>(m.rngJobsCompleted)},
        {"reads_completed", static_cast<double>(m.readsCompleted)},
        {"sum_read_latency", static_cast<double>(m.sumReadLatency)},
        {"sum_rng_latency", static_cast<double>(m.sumRngLatency)},
        {"buffer_serve_rate", m.bufferServeRate()},
    };
    double energy_nj = 0.0;
    for (unsigned ch = 0; ch < sys.mc().numChannels(); ++ch) {
        energy_nj += dstrange::sim::channelEnergy(
                         cfg.timings,
                         sys.mc().channel(ch).energyCounters())
                         .total();
    }
    out.emplace_back("energy_nj", energy_nj);
    return out;
}

/**
 * One record→replay comparison: run @p spec live under @p cfg while
 * recording the controller-boundary request stream to @p trace_path,
 * then replay the tape into a freshly-built controller with the same
 * configuration, timing both runs and diffing their controller-side
 * metrics. The trace file is left on disk for inspection or reuse.
 */
inline TraceCellRecord
runTraceReplayCell(dstrange::sim::SimConfig cfg,
                   const dstrange::workloads::WorkloadSpec &spec,
                   const std::string &trace_path)
{
    namespace ds = dstrange;
    TraceCellRecord cell;

    cfg.traceRecord = trace_path;
    cfg.traceReplay.clear();
    std::vector<std::unique_ptr<ds::cpu::TraceSource>> traces;
    for (unsigned i = 0; i < spec.apps.size(); ++i) {
        traces.push_back(std::make_unique<ds::workloads::SyntheticTrace>(
            ds::workloads::appByName(spec.apps[i]), cfg.geometry,
            static_cast<ds::CoreId>(i), cfg.seed));
    }
    if (spec.rngThroughputMbps > 0.0) {
        traces.push_back(std::make_unique<ds::workloads::RngBenchmark>(
            spec.rngThroughputMbps, cfg.geometry,
            cfg.seed + traces.size()));
    }
    WallTimer timer;
    ds::sim::System live(cfg, std::move(traces));
    live.run();
    cell.liveMs = timer.elapsedMs();
    const auto live_metrics = mcMetrics(live, cfg);

    cfg.traceRecord.clear();
    cfg.traceReplay = trace_path;
    timer.reset();
    ds::sim::System replay(cfg, {});
    replay.run();
    cell.replayMs = timer.elapsedMs();
    cell.records = replay.replaySource()->replayedCount();
    cell.bitIdentical = mcMetrics(replay, cfg) == live_metrics;
    return cell;
}

/**
 * Directory for BENCH_*.json output. Defaults to the current working
 * directory; override with DS_BENCH_OUT.
 */
inline std::string
benchOutputDir()
{
    if (const char *env = std::getenv("DS_BENCH_OUT"))
        return env;
    return ".";
}

/**
 * Write a BENCH_<harness>.json perf record for a set of benchmark
 * executions, plus an optional in-process sweep record (per-cell and
 * aggregate wall-clock and the measured parallel speedup). Returns the
 * path written, or an empty string on I/O failure. The schema is
 * intentionally flat so the perf-trajectory tooling can diff runs
 * across commits. @p file_name overrides the default
 * "BENCH_<harness>.json" leaf name (shard fragments use
 * "BENCH_<harness>.shard-I.json").
 */
inline std::string
writeBenchJson(const std::string &harness,
               const std::vector<BenchRecord> &records,
               const SweepRecord *sweep = nullptr,
               const std::string &out_dir = benchOutputDir(),
               const std::string &file_name = "")
{
    dstrange::JsonWriter w;
    w.beginObject();
    w.key("schema").value("drstrange-bench-v1");
    w.key("harness").value(harness);
    // Build fingerprint (cache schema + compiler + source-tree hash +
    // fast-forward mode): --merge-shards refuses to join fragments
    // whose fingerprints differ, since their cells came from different
    // simulators.
    w.key("fingerprint").value(
        dstrange::sim::ResultStore::buildFingerprint());
    const dstrange::sim::SimConfig base = baseConfig();
    w.key("instr_budget").value(
        static_cast<std::uint64_t>(base.instrBudget));
    w.key("config").value(dstrange::sim::serializeConfig(base));
    w.key("results").beginArray();
    for (const BenchRecord &rec : records) {
        w.beginObject();
        w.key("name").value(rec.name);
        w.key("wall_ms").value(rec.wallMs);
        w.key("exit_code").value(rec.exitCode);
        w.key("ok").value(rec.exitCode == 0);
        w.key("metrics").beginObject();
        for (const auto &[metric, value] : rec.metrics)
            w.key(metric).value(value);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    if (sweep) {
        w.key("sweep").beginObject();
        w.key("jobs").value(
            static_cast<std::uint64_t>(sweep->jobs));
        w.key("wall_ms").value(sweep->wallMs);
        w.key("serial_wall_ms").value(sweep->serialWallMs);
        w.key("cells_total_ms").value(sweep->cellsTotalMs);
        w.key("speedup").value(sweep->speedup());
        w.key("bit_identical").value(sweep->bitIdentical);
        if (sweep->shardCount > 1 && !sweep->merged) {
            w.key("shard").beginObject();
            w.key("index").value(
                static_cast<std::uint64_t>(sweep->shardIndex));
            w.key("count").value(
                static_cast<std::uint64_t>(sweep->shardCount));
            w.endObject();
        }
        if (sweep->merged) {
            w.key("merged").value(true);
            w.key("shard_count").value(
                static_cast<std::uint64_t>(sweep->shardCount));
            w.key("shards").beginArray();
            for (const ShardSummaryRecord &s : sweep->shards) {
                w.beginObject();
                w.key("index").value(
                    static_cast<std::uint64_t>(s.index));
                w.key("jobs").value(static_cast<std::uint64_t>(s.jobs));
                w.key("wall_ms").value(s.wallMs);
                w.key("serial_wall_ms").value(s.serialWallMs);
                w.key("step1_wall_ms").value(s.step1WallMs);
                w.key("bit_identical").value(s.bitIdentical);
                w.key("cache_hits").value(s.cacheHits);
                w.key("cache_misses").value(s.cacheMisses);
                w.key("cache_stores").value(s.cacheStores);
                w.endObject();
            }
            w.endArray();
        }
        if (sweep->cacheEnabled) {
            w.key("cache").beginObject();
            w.key("dir").value(sweep->cacheDir);
            w.key("hits").value(sweep->cacheHits);
            w.key("misses").value(sweep->cacheMisses);
            w.key("stores").value(sweep->cacheStores);
            w.endObject();
        }
        w.key("fastforward").beginObject();
        w.key("step1_wall_ms").value(sweep->step1WallMs);
        w.key("ff_wall_ms").value(sweep->serialWallMs);
        w.key("speedup").value(sweep->ffSpeedup());
        w.key("tiers").beginArray();
        for (const FfTierRecord &tier : sweep->ffTiers) {
            w.beginObject();
            w.key("name").value(tier.name);
            w.key("step1_wall_ms").value(tier.step1Ms);
            w.key("ff_wall_ms").value(tier.ffMs);
            w.key("speedup").value(tier.speedup());
            w.endObject();
        }
        w.endArray();
        w.endObject();
        if (sweep->hasTrace) {
            w.key("trace").beginObject();
            w.key("live_wall_ms").value(sweep->trace.liveMs);
            w.key("replay_wall_ms").value(sweep->trace.replayMs);
            w.key("speedup").value(sweep->trace.speedup());
            w.key("bit_identical").value(sweep->trace.bitIdentical);
            w.key("cells").beginArray();
            for (const TraceCellRecord &cell : sweep->trace.cells) {
                w.beginObject();
                w.key("name").value(cell.name);
                w.key("live_wall_ms").value(cell.liveMs);
                w.key("replay_wall_ms").value(cell.replayMs);
                w.key("speedup").value(cell.speedup());
                w.key("bit_identical").value(cell.bitIdentical);
                w.key("records").value(cell.records);
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        w.key("cells").beginArray();
        for (const SweepCellRecord &cell : sweep->cells) {
            w.beginObject();
            w.key("name").value(cell.name);
            w.key("wall_ms").value(cell.wallMs);
            w.key("ok").value(cell.ok);
            if (cell.skipped)
                w.key("skipped").value(true);
            if (!cell.ok && !cell.skipped)
                w.key("error").value(cell.error);
            w.key("outcome").value(cell.outcome);
            w.key("metrics").beginObject();
            for (const auto &[metric, value] : cell.metrics)
                w.key(metric).value(value);
            w.endObject();
            w.endObject();
        }
        w.endArray();
        // Derived mitigation-vs-none comparison over the fault tier's
        // "fault/<design>/<rate>-<mit|nomit>" cells. Computed here by
        // scanning cell names rather than carried through the sweep, so
        // a --merge-shards reassembly (which only concatenates cells)
        // reproduces it for free.
        {
            struct FaultSide {
                double goodput = -1.0;
                double p99 = 0.0;
            };
            struct FaultPair {
                FaultSide mit, nomit;
            };
            std::vector<std::pair<std::string, FaultPair>> pairs;
            auto side_of = [&](const std::string &base,
                               bool mit) -> FaultSide & {
                for (auto &[name, pair] : pairs) {
                    if (name == base)
                        return mit ? pair.mit : pair.nomit;
                }
                pairs.emplace_back(base, FaultPair{});
                return mit ? pairs.back().second.mit
                           : pairs.back().second.nomit;
            };
            for (const SweepCellRecord &cell : sweep->cells) {
                if (cell.name.rfind("fault/", 0) != 0 || !cell.ok)
                    continue;
                bool mit;
                std::string base;
                if (cell.name.size() > 4 &&
                    cell.name.rfind("-mit") == cell.name.size() - 4) {
                    mit = true;
                    base = cell.name.substr(0, cell.name.size() - 4);
                } else if (cell.name.size() > 6 &&
                           cell.name.rfind("-nomit") ==
                               cell.name.size() - 6) {
                    mit = false;
                    base = cell.name.substr(0, cell.name.size() - 6);
                } else {
                    continue;
                }
                // Round through the JSON number format (6 significant
                // digits) before deriving ratios: a --merge-shards
                // reassembly reads these metrics back from fragment
                // text, and the derived table must come out
                // bit-identical either way.
                auto rounded = [](double v) {
                    char buf[32];
                    std::snprintf(buf, sizeof(buf), "%.6g", v);
                    return std::strtod(buf, nullptr);
                };
                FaultSide &side = side_of(base, mit);
                for (const auto &[metric, value] : cell.metrics) {
                    if (metric == "svc_goodput_rps")
                        side.goodput = rounded(value);
                    else if (metric == "svc_p99")
                        side.p99 = rounded(value);
                }
            }
            bool any = false;
            for (const auto &[base, pair] : pairs)
                any = any || (pair.mit.goodput >= 0.0 &&
                              pair.nomit.goodput >= 0.0);
            if (any) {
                w.key("fault_comparison").beginArray();
                for (const auto &[base, pair] : pairs) {
                    if (pair.mit.goodput < 0.0 ||
                        pair.nomit.goodput < 0.0)
                        continue;
                    w.beginObject();
                    w.key("name").value(base);
                    w.key("goodput_mit").value(pair.mit.goodput);
                    w.key("goodput_nomit").value(pair.nomit.goodput);
                    w.key("retention").value(
                        pair.nomit.goodput > 0.0
                            ? pair.mit.goodput / pair.nomit.goodput
                            : 0.0);
                    w.key("p99_mit").value(pair.mit.p99);
                    w.key("p99_nomit").value(pair.nomit.p99);
                    w.key("mitigation_wins").value(
                        pair.mit.goodput > pair.nomit.goodput);
                    w.endObject();
                }
                w.endArray();
            }
        }
        w.endObject();
    }
    w.endObject();

    const std::string leaf =
        file_name.empty() ? "BENCH_" + harness + ".json" : file_name;
    const std::string path = out_dir + "/" + leaf;
    std::ofstream out(path);
    if (!out)
        return "";
    out << w.str() << "\n";
    out.flush(); // surface disk-full/IO errors before the success check
    return out ? path : "";
}

} // namespace bench

#endif // DSTRANGE_BENCH_BENCH_UTIL_H
