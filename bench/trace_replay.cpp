/**
 * @file
 * Request-trace capture/replay study: record the controller-boundary
 * request stream of a dual-core + RNG workload under each scheduler,
 * replay each tape into an identically-configured controller, and
 * verify that every controller-side metric reproduces bit-identically
 * at a materially lower wall-clock (replay executes no core or service
 * model). Exits non-zero on any metric mismatch, so the study doubles
 * as a regression gate for the trace subsystem.
 *
 * Writes BENCH_trace_replay.json (and the .bin tapes) into
 * DS_BENCH_OUT.
 */

#include <iostream>

#include "bench_util.h"

using namespace dstrange;

int
main()
{
    bench::banner("Request-trace capture/replay",
                  "controller-boundary study (replay bit-identity)");

    const std::vector<std::string> schedulers = {"fr-fcfs",
                                                 "fr-fcfs-cap", "bliss"};
    workloads::WorkloadSpec spec;
    spec.apps = {"soplex", "mcf"};
    spec.rngThroughputMbps = 5120.0;

    const std::string out_dir = bench::benchOutputDir();
    TablePrinter t;
    t.setHeader({"scheduler", "records", "live ms", "replay ms",
                 "speedup", "bit-identical"});

    std::vector<bench::BenchRecord> records;
    bool all_identical = true;
    double live_total = 0.0, replay_total = 0.0;
    for (const std::string &sched : schedulers) {
        sim::SimConfig cfg = bench::baseConfig();
        sim::DesignRegistry::instance().apply("drstrange", cfg);
        cfg.scheduler = sched;
        const std::string path =
            out_dir + "/trace_replay_" + sched + ".bin";

        bench::TraceCellRecord cell;
        try {
            cell = bench::runTraceReplayCell(cfg, spec, path);
        } catch (const std::exception &e) {
            std::cerr << "cell '" << sched << "' failed: " << e.what()
                      << "\n";
            return 1;
        }
        all_identical = all_identical && cell.bitIdentical;
        live_total += cell.liveMs;
        replay_total += cell.replayMs;
        t.addRow({sched, std::to_string(cell.records),
                  bench::num(cell.liveMs, 1),
                  bench::num(cell.replayMs, 1),
                  bench::num(cell.speedup(), 2),
                  cell.bitIdentical ? "yes" : "NO"});

        bench::BenchRecord rec;
        rec.name = "trace_replay/" + sched;
        rec.wallMs = cell.liveMs + cell.replayMs;
        rec.exitCode = cell.bitIdentical ? 0 : 1;
        rec.metrics = {
            {"live_wall_ms", cell.liveMs},
            {"replay_wall_ms", cell.replayMs},
            {"speedup", cell.speedup()},
            {"records", static_cast<double>(cell.records)},
            {"bit_identical", cell.bitIdentical ? 1.0 : 0.0},
        };
        records.push_back(std::move(rec));
    }
    t.print(std::cout);
    std::cout << "\ntotal: " << bench::num(live_total, 1)
              << " ms live -> " << bench::num(replay_total, 1)
              << " ms replay ("
              << bench::num(replay_total > 0.0
                                ? live_total / replay_total
                                : 0.0,
                            2)
              << "x), "
              << (all_identical ? "bit-identical" : "METRIC MISMATCH")
              << "\n";

    const std::string path =
        bench::writeBenchJson("trace_replay", records);
    if (!path.empty())
        std::cout << "wrote " << path << "\n";
    return all_identical ? 0 : 1;
}
