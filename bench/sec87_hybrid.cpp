/**
 * @file
 * Section 8.7 (future work, implemented here as an extension): hybrid
 * DRAM TRNGs that use one mechanism to fill the random number buffer
 * and another to serve on-demand requests. Evaluates all four
 * combinations of D-RaNGe (low 64-bit latency) and QUAC-TRNG (high
 * sustained throughput, high 64-bit latency) under DR-STRaNGe.
 */

#include <iostream>

#include "bench_util.h"

using namespace dstrange;

int
main()
{
    bench::banner("Section 8.7 extension: hybrid TRNG mechanisms",
                  "demand/fill mechanism combinations under DR-STRaNGe");

    struct Combo
    {
        const char *label;
        trng::TrngMechanism demand;
        std::optional<trng::TrngMechanism> fill;
    };
    const Combo combos[] = {
        {"D-RaNGe only", trng::TrngMechanism::dRange(), std::nullopt},
        {"QUAC only", trng::TrngMechanism::quacTrng(), std::nullopt},
        {"demand=D-RaNGe fill=QUAC", trng::TrngMechanism::dRange(),
         trng::TrngMechanism::quacTrng()},
        {"demand=QUAC fill=D-RaNGe", trng::TrngMechanism::quacTrng(),
         trng::TrngMechanism::dRange()},
    };

    TablePrinter t;
    t.setHeader({"configuration", "non-RNG slowdown", "RNG slowdown",
                 "unfairness", "serve rate"});

    // Explicit-config cells (buildSweepCell): each combo pins its own
    // demand/fill mechanisms under the DR-STRaNGe preset, and all four
    // combos' mixes run through one shared parallel grid.
    const auto mixes = workloads::dualCorePlottedMixes(5120.0);
    std::vector<sim::SweepRunner::Cell> cells;
    for (const Combo &combo : combos) {
        sim::SimConfig cfg = bench::baseConfig();
        sim::DesignRegistry::instance().apply("drstrange", cfg);
        cfg.mechanism = combo.demand;
        if (combo.fill)
            cfg.fillMechanism = combo.fill;
        const sim::SimulationBuilder b(cfg);
        for (const auto &mix : mixes)
            cells.push_back(b.buildSweepCell(mix));
    }
    sim::SweepRunner sweep = bench::baseSweepRunner();
    const auto results = bench::runCellsOrExit(sweep, cells);

    for (std::size_t c = 0; c < std::size(combos); ++c) {
        std::vector<double> non_rng, rng, unf, serve;
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            const auto &res = results[c * mixes.size() + m].result;
            non_rng.push_back(res.avgNonRngSlowdown());
            rng.push_back(res.rngSlowdown());
            unf.push_back(res.unfairnessIndex);
            serve.push_back(res.bufferServeRate);
        }
        t.addRow({combos[c].label, bench::num(mean(non_rng)),
                  bench::num(mean(rng)), bench::num(mean(unf)),
                  bench::num(mean(serve))});
    }
    t.print(std::cout);

    std::cout << "\nThe paper leaves hybrid evaluation to future work; "
                 "the expectation is that a\nlow-latency demand mechanism "
                 "paired with a high-throughput fill mechanism\ncombines "
                 "the strengths of both.\n";
    return 0;
}
