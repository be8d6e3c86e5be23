/**
 * @file
 * Quickstart: simulate one RNG application (5 Gb/s requirement) running
 * next to one memory-intensive application under the three headline
 * system designs, and print the paper's headline metrics for the mix.
 *
 * This is the canonical SimulationBuilder snippet: configure once by
 * setting SimConfig fields (or applying config text), then sweep
 * design presets through the Runner.
 */

#include <iostream>

#include "common/env_util.h"
#include "drstrange.h"

using namespace dstrange;

int
main()
{
    // One configuration covers the whole experiment; buildRunner()
    // hands back a Runner whose alone-run baselines are cached across
    // sweeps.
    sim::SimConfig cfg;
    cfg.instrBudget = envU64("DS_INSTR_BUDGET", 200000);
    cfg.seed = 1;
    sim::Runner runner = sim::SimulationBuilder(cfg).buildRunner();

    workloads::WorkloadSpec spec;
    spec.name = "mcf+rng5120";
    spec.apps = {"mcf"};
    spec.rngThroughputMbps = 5120.0;

    TablePrinter table;
    table.setHeader({"design", "non-RNG slowdown", "RNG slowdown",
                     "unfairness", "buffer serve rate", "bus cycles"});

    // Design presets are registry keys; user-registered designs sweep
    // the same way (see examples/scheduler_explorer.cpp).
    for (const std::string design : {"oblivious", "greedy", "drstrange"}) {
        const auto res = runner.run(design, spec);
        table.addRow({sim::DesignRegistry::instance().displayName(design),
                      TablePrinter::num(res.avgNonRngSlowdown()),
                      TablePrinter::num(res.rngSlowdown()),
                      TablePrinter::num(res.unfairnessIndex),
                      TablePrinter::num(res.bufferServeRate),
                      std::to_string(res.busCycles)});
    }

    std::cout << "Workload: " << spec.name << " (one memory-intensive app"
              << " + one 5 Gb/s RNG app, dual-core)\n\n";
    table.print(std::cout);

    std::cout << "\nExpected shape (paper, Fig. 6/9): DR-STRaNGe improves"
                 " both applications\nand fairness over the RNG-oblivious"
                 " baseline; the greedy oracle sits in between.\n";
    return 0;
}
