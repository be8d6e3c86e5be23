/**
 * @file
 * Figure 12: impact of priority-based RNG-aware scheduling — normalized
 * weighted speedup of non-RNG applications (left) and slowdown of the
 * RNG application (right) when the OS prioritizes non-RNG vs RNG
 * applications, on 4-, 8-, 16-core workloads.
 */

#include <iostream>

#include "bench_util.h"

using namespace dstrange;

int
main()
{
    bench::banner("Figure 12: priority-based RNG-aware scheduling",
                  "DR-STRaNGe with non-RNG vs RNG applications "
                  "prioritized, normalized to the baseline");

    sim::SimConfig cfg = bench::baseConfig();
    cfg.instrBudget = std::min<std::uint64_t>(cfg.instrBudget, 50000);

    TablePrinter t;
    t.setHeader({"cores", "WS drstr(nonRNG-prio)", "WS drstr(RNG-prio)",
                 "RNGsd oblivious", "RNGsd drstr(nonRNG-prio)",
                 "RNGsd drstr(RNG-prio)"});

    // Three explicit-config cells per mix (baseline, non-RNG
    // prioritized, RNG prioritized), fanned out per core-count group
    // through the shared SweepRunner.
    sim::SweepRunner sweep = bench::baseSweepRunner();
    std::vector<double> gm_ws_non, gm_ws_rng;
    for (unsigned cores : {4u, 8u, 16u}) {
        std::vector<double> ws_non, ws_rng, sd_base, sd_non, sd_rng;
        const auto mixes =
            workloads::multiCoreCategoryGroup(cores, 'M', cfg.seed);

        std::vector<sim::SweepRunner::Cell> cells;
        for (const auto &mix : mixes) {
            sim::SimConfig base_cfg = cfg;
            sim::DesignRegistry::instance().apply("oblivious", base_cfg);

            // Non-RNG applications prioritized (priority 5 vs 0).
            sim::SimConfig non_cfg = cfg;
            sim::DesignRegistry::instance().apply("drstrange", non_cfg);
            non_cfg.priorities.assign(cores, 5);
            non_cfg.priorities.back() = 0; // the RNG core

            // RNG application prioritized.
            sim::SimConfig rng_cfg = cfg;
            sim::DesignRegistry::instance().apply("drstrange", rng_cfg);
            rng_cfg.priorities.assign(cores, 0);
            rng_cfg.priorities.back() = 5;

            for (const sim::SimConfig &c : {base_cfg, non_cfg, rng_cfg}) {
                sim::SweepRunner::Cell cell;
                cell.config = c;
                cell.spec = mix;
                cells.push_back(std::move(cell));
            }
        }
        const auto results = bench::runCellsOrExit(sweep, cells);

        for (std::size_t m = 0; m < mixes.size(); ++m) {
            const auto &base = results[m * 3 + 0].result;
            const auto &non_prio = results[m * 3 + 1].result;
            const auto &rng_prio = results[m * 3 + 2].result;
            ws_non.push_back(non_prio.weightedSpeedupNonRng /
                             base.weightedSpeedupNonRng);
            ws_rng.push_back(rng_prio.weightedSpeedupNonRng /
                             base.weightedSpeedupNonRng);
            sd_base.push_back(base.rngSlowdown());
            sd_non.push_back(non_prio.rngSlowdown());
            sd_rng.push_back(rng_prio.rngSlowdown());
        }
        t.addRow({std::to_string(cores) + "-CORE",
                  bench::num(geomean(ws_non)), bench::num(geomean(ws_rng)),
                  bench::num(mean(sd_base)), bench::num(mean(sd_non)),
                  bench::num(mean(sd_rng))});
        gm_ws_non.push_back(geomean(ws_non));
        gm_ws_rng.push_back(geomean(ws_rng));
    }
    t.addRow({"GMEAN", bench::num(geomean(gm_ws_non)),
              bench::num(geomean(gm_ws_rng)), "", "", ""});
    t.print(std::cout);

    std::cout << "\nPaper shape: prioritizing non-RNG applications "
                 "raises their weighted speedup\n(+8.9% avg); "
                 "prioritizing the RNG application improves its "
                 "performance (+9.9% avg);\nboth beat the RNG-oblivious "
                 "baseline.\n";
    return 0;
}
