/**
 * @file
 * Figure 10: impact of the random number buffer size (no buffer, 1, 4,
 * 16, 64 entries, simple buffering mechanism) on non-RNG and RNG
 * application slowdown and on the buffer serve rate.
 */

#include <iostream>

#include "bench_util.h"

using namespace dstrange;

int
main()
{
    bench::banner("Figure 10: random number buffer size sweep",
                  "slowdowns and buffer serve rate vs. buffer entries, "
                  "simple buffering");

    const unsigned sizes[] = {0, 1, 4, 16, 64};
    const auto mixes = workloads::dualCorePlottedMixes(5120.0);

    // One grid over all buffer sizes: every (size, mix) pair is an
    // explicit-config cell, fanned out through the shared SweepRunner.
    sim::SweepRunner sweep = bench::baseSweepRunner();
    std::vector<sim::SweepRunner::Cell> cells;
    for (unsigned entries : sizes) {
        sim::SimConfig cfg = bench::baseConfig();
        cfg.bufferEntries = entries;
        // "No buffer" means the RNG-aware design without buffering.
        sim::DesignRegistry::instance().apply(
            entries == 0 ? "rng-aware" : "drstrange-nopred", cfg);
        for (const auto &mix : mixes) {
            sim::SweepRunner::Cell cell;
            cell.config = cfg;
            cell.spec = mix;
            cells.push_back(std::move(cell));
        }
    }
    const auto results = bench::runCellsOrExit(sweep, cells);

    TablePrinter t;
    t.setHeader({"entries", "avg non-RNG slowdown", "avg RNG slowdown",
                 "avg buffer serve rate"});

    TablePrinter per_app;
    per_app.setHeader(
        {"workload(16)", "non-RNG", "RNG", "serve rate"});

    for (std::size_t s = 0; s < std::size(sizes); ++s) {
        const unsigned entries = sizes[s];
        std::vector<double> non_rng, rng, serve;
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            const auto &res = results[s * mixes.size() + m].result;
            non_rng.push_back(res.avgNonRngSlowdown());
            rng.push_back(res.rngSlowdown());
            serve.push_back(res.bufferServeRate);
            if (entries == 16) {
                per_app.addRow({mixes[m].apps[0],
                                bench::num(non_rng.back()),
                                bench::num(rng.back()),
                                bench::num(serve.back())});
            }
        }
        t.addRow({entries == 0 ? "No Buffer" : std::to_string(entries),
                  bench::num(mean(non_rng)), bench::num(mean(rng)),
                  bench::num(mean(serve))});
    }

    t.print(std::cout);
    std::cout << "\nPer-workload detail at 16 entries:\n";
    per_app.print(std::cout);
    std::cout << "\nPaper shape: gains grow up to a 16-entry buffer "
                 "(avg serve rate 0.55);\nlarger buffers help only a few "
                 "workloads.\n";
    return 0;
}
