/**
 * @file
 * Shared helpers for the figure-reproduction bench binaries: standard
 * base configuration, environment overrides, and row formatting.
 */

#ifndef DSTRANGE_BENCH_BENCH_UTIL_H
#define DSTRANGE_BENCH_BENCH_UTIL_H

#include <chrono>
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
 * Base configuration for all figure benches. The per-core instruction
 * budget is scaled down from the paper's 200M-instruction SimPoints so
 * the whole harness runs in minutes; override with DS_INSTR_BUDGET.
 * DS_CONFIG may hold extra key=value config text (see
 * sim/config_text.h) applied on top — e.g.
 * DS_CONFIG="mechanism=quac buffer-entries=32".
 */
inline dstrange::sim::SimConfig
baseConfig()
{
    dstrange::sim::SimConfig cfg;
    cfg.instrBudget = dstrange::envU64("DS_INSTR_BUDGET", 200000);
    if (const char *text = std::getenv("DS_CONFIG")) {
        try {
            dstrange::sim::applyConfigText(cfg, text);
        } catch (const std::exception &e) {
            std::cerr << "DS_CONFIG: " << e.what() << "\n";
            std::exit(2);
        }
    }
    return cfg;
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
    return dstrange::sim::SweepRunner(baseConfig());
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

/** One record→replay comparison cell of bench/trace_replay. */
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
 * Write a BENCH_<harness>.json record for a set of benchmark
 * executions: each one's name, wall time, exit code and any named
 * metrics it reported. Returns the path written, or an empty string on
 * I/O failure.
 */
inline std::string
writeBenchJson(const std::string &harness,
               const std::vector<BenchRecord> &records,
               const std::string &out_dir = benchOutputDir())
{
    dstrange::JsonWriter w;
    w.beginObject();
    w.key("schema").value("drstrange-bench-v1");
    w.key("harness").value(harness);
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
    w.endObject();

    const std::string path = out_dir + "/BENCH_" + harness + ".json";
    std::ofstream out(path);
    if (!out)
        return "";
    out << w.str() << "\n";
    out.flush(); // surface disk-full/IO errors before the success check
    return out ? path : "";
}

} // namespace bench

#endif // DSTRANGE_BENCH_BENCH_UTIL_H
