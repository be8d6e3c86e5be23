/**
 * @file
 * Section 8.9: energy consumption (DRAMPower-style model) and area
 * overhead (CACTI-calibrated model at 22 nm) of DR-STRaNGe vs the
 * RNG-oblivious baseline.
 */

#include <iostream>

#include "bench_util.h"

using namespace dstrange;

int
main()
{
    bench::banner("Section 8.9: energy and area",
                  "energy/memory-cycle reduction and controller area");

    sim::SweepRunner sweep = bench::baseSweepRunner();
    const auto mixes = workloads::dualCorePlottedMixes(5120.0);
    const std::vector<std::string> designs = {"oblivious", "drstrange"};
    const auto results = bench::runCellsOrExit(
        sweep, sim::SweepRunner::grid(designs, mixes));

    std::vector<double> base_energy, dr_energy, base_cycles, dr_cycles;
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        const auto &base = results[m * 2 + 0].result;
        const auto &dr = results[m * 2 + 1].result;
        base_energy.push_back(base.energyNj);
        dr_energy.push_back(dr.energyNj);
        base_cycles.push_back(static_cast<double>(base.busCycles));
        dr_cycles.push_back(static_cast<double>(dr.busCycles));
    }

    TablePrinter t;
    t.setHeader({"metric", "RNG-Oblivious", "DR-STRANGE", "reduction"});
    t.addRow({"avg DRAM energy (uJ)",
              bench::num(mean(base_energy) / 1000.0, 1),
              bench::num(mean(dr_energy) / 1000.0, 1),
              bench::num((mean(base_energy) - mean(dr_energy)) /
                             mean(base_energy) * 100.0,
                         1) +
                  "%"});
    t.addRow({"avg memory cycles", bench::num(mean(base_cycles), 0),
              bench::num(mean(dr_cycles), 0),
              bench::num((mean(base_cycles) - mean(dr_cycles)) /
                             mean(base_cycles) * 100.0,
                         1) +
                  "%"});
    t.print(std::cout);
    std::cout << "\nPaper: 21% energy reduction, 15.8% fewer memory "
                 "cycles.\n\n";

    // Extension ablation: precharge power-down (predictor-friendly
    // energy knob; cf. the power-down predictor line of related work the
    // paper cites). Idle channels power down after 50 cycles.
    {
        std::cout << "Power-down ablation (DR-STRaNGe, 23 mixes):\n";
        TablePrinter pd;
        pd.setHeader({"power-down", "avg energy (uJ)", "avg non-RNG sd",
                      "avg RNG sd"});
        // Explicit-config cells: both thresholds' mixes in one grid.
        const std::vector<Cycle> thresholds = {Cycle(0), Cycle(50)};
        std::vector<sim::SweepRunner::Cell> cells;
        for (Cycle threshold : thresholds) {
            sim::SimConfig cfg = bench::baseConfig();
            sim::DesignRegistry::instance().apply("drstrange", cfg);
            cfg.powerDownThreshold = threshold;
            const sim::SimulationBuilder b(cfg);
            for (const auto &mix : mixes)
                cells.push_back(b.buildSweepCell(mix));
        }
        const auto pd_results = bench::runCellsOrExit(sweep, cells);
        for (std::size_t t_i = 0; t_i < thresholds.size(); ++t_i) {
            std::vector<double> energy, non_rng, rng;
            for (std::size_t m = 0; m < mixes.size(); ++m) {
                const auto &res =
                    pd_results[t_i * mixes.size() + m].result;
                energy.push_back(res.energyNj);
                non_rng.push_back(res.avgNonRngSlowdown());
                rng.push_back(res.rngSlowdown());
            }
            pd.addRow({thresholds[t_i] == 0 ? "off"
                                            : "50-cycle threshold",
                       bench::num(mean(energy) / 1000.0, 1),
                       bench::num(mean(non_rng)), bench::num(mean(rng))});
        }
        pd.print(std::cout);
        std::cout << "\n";
    }

    // Area model (CACTI-calibrated, 22 nm).
    TablePrinter a;
    a.setHeader({"configuration", "storage (KB)", "area (mm^2)",
                 "% of Cascade Lake core"});
    sim::SimConfig cfg = bench::baseConfig();
    const sim::DesignRegistry &registry = sim::DesignRegistry::instance();
    for (const char *design : {"drstrange", "drstrange-rl"}) {
        registry.apply(design, cfg);
        const auto est = sim::drStrangeArea(cfg, cfg.geometry.channels);
        a.addRow({registry.displayName(design),
                  bench::num(est.storageBits / 8.0 / 1024.0, 3),
                  bench::num(est.mm2, 4),
                  bench::num(est.fractionOfCascadeLakeCore() * 100.0, 5)});
    }
    a.print(std::cout);
    std::cout << "\nPaper: 0.0022 mm^2 (0.00048% of a Cascade Lake core) "
                 "for the base design,\n0.012 mm^2 with the RL "
                 "predictor's 8 KB Q-table.\n";
    return 0;
}
