/**
 * @file
 * Figure 14: DRAM idleness predictor accuracy — per two-core workload
 * (left) and across 2-, 4-, 8-, 16-core workload groups (right), for
 * the simple table-based predictor and the RL agent.
 */

#include <iostream>

#include "bench_util.h"

using namespace dstrange;

int
main()
{
    bench::banner("Figure 14: idleness predictor accuracy",
                  "percentage of correctly predicted idle periods");

    sim::SimConfig cfg = bench::baseConfig();
    sim::SweepRunner sweep = bench::baseSweepRunner();
    const std::vector<std::string> designs = {"drstrange", "drstrange-rl"};

    TablePrinter t;
    t.setHeader({"workload", "DR-STRANGE", "DR-STRANGE+RL"});
    std::vector<double> simple_acc, rl_acc;

    const auto dual_mixes = workloads::dualCorePlottedMixes(5120.0);
    const auto dual_results = bench::runCellsOrExit(
        sweep, sim::SweepRunner::grid(designs, dual_mixes));
    for (std::size_t i = 0; i < dual_mixes.size(); ++i) {
        const double s = dual_results[i * 2 + 0].result.predictorAccuracy;
        const double r = dual_results[i * 2 + 1].result.predictorAccuracy;
        simple_acc.push_back(s);
        rl_acc.push_back(r);
        t.addRow({dual_mixes[i].apps[0], bench::num(s * 100.0, 1),
                  bench::num(r * 100.0, 1)});
    }
    t.addRow({"AVG", bench::num(mean(simple_acc) * 100.0, 1),
              bench::num(mean(rl_acc) * 100.0, 1)});
    t.print(std::cout);

    // Right panel: multicore geometric means. The reduced-budget cells
    // carry their configuration explicitly.
    std::cout << "\nMulticore workload groups:\n";
    TablePrinter m;
    m.setHeader({"cores", "DR-STRANGE", "DR-STRANGE+RL"});
    m.addRow({"2-core", bench::num(mean(simple_acc) * 100.0, 1),
              bench::num(mean(rl_acc) * 100.0, 1)});

    sim::SimConfig mcfg = cfg;
    mcfg.instrBudget = std::min<std::uint64_t>(cfg.instrBudget, 50000);
    for (unsigned cores : {4u, 8u, 16u}) {
        std::vector<sim::SweepRunner::Cell> cells;
        for (char cat : {'L', 'M', 'H'}) {
            const auto mixes =
                workloads::multiCoreCategoryGroup(cores, cat, cfg.seed);
            for (unsigned i = 0; i < 3; ++i) { // 3 mixes per category
                for (const std::string &d : designs) {
                    sim::SweepRunner::Cell cell;
                    sim::SimConfig c = mcfg;
                    sim::DesignRegistry::instance().apply(d, c);
                    cell.config = std::move(c);
                    cell.spec = mixes[i];
                    cells.push_back(std::move(cell));
                }
            }
        }
        const auto results = bench::runCellsOrExit(sweep, cells);
        std::vector<double> s_acc, r_acc;
        for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
            s_acc.push_back(results[i].result.predictorAccuracy);
            r_acc.push_back(results[i + 1].result.predictorAccuracy);
        }
        m.addRow({std::to_string(cores) + "-core",
                  bench::num(mean(s_acc) * 100.0, 1),
                  bench::num(mean(r_acc) * 100.0, 1)});
    }
    m.print(std::cout);

    std::cout << "\nPaper shape: ~80% accuracy for both predictors on "
                 "two-core workloads, lower\nwith more cores (less "
                 "idleness, more complex interference).\n";
    return 0;
}
