/**
 * @file
 * Figure 18 (appendix): distribution of DRAM idle period lengths of
 * multicore (4/8/16-core) workloads consisting of non-RNG applications,
 * grouped by memory intensity.
 */

#include <iostream>

#include "bench_util.h"

using namespace dstrange;

int
main()
{
    bench::banner("Figure 18: multicore DRAM idle period lengths",
                  "box plot per workload group; line = 64-bit generation "
                  "latency");

    sim::SimConfig cfg = bench::baseConfig();
    cfg.instrBudget = std::min<std::uint64_t>(cfg.instrBudget, 50000);
    const Cycle gen64 =
        cfg.mechanism.demandLatency(64, cfg.geometry.channels);

    TablePrinter t;
    t.setHeader({"group", "min", "q1", "median", "q3", "max",
                 "% < gen64"});

    // Grid cells over all groups; the shared runner collects each
    // run's idle-period distribution into the cell result.
    sim::SweepRunner sweep = bench::baseSweepRunner();
    sweep.runner().setCollectIdlePeriods(true);
    sim::SimConfig run_cfg = cfg;
    sim::DesignRegistry::instance().apply("oblivious", run_cfg);

    struct Group
    {
        unsigned cores;
        char cat;
    };
    std::vector<Group> groups;
    std::vector<sim::SweepRunner::Cell> cells;
    for (unsigned cores : {4u, 8u, 16u}) {
        for (char cat : {'L', 'M', 'H'}) {
            groups.push_back({cores, cat});
            auto mixes =
                workloads::multiCoreCategoryGroup(cores, cat, cfg.seed);
            for (unsigned m = 0; m < 4; ++m) { // 4 mixes per group
                sim::SweepRunner::Cell cell;
                cell.config = run_cfg;
                cell.spec = mixes[m];
                cell.spec.rngThroughputMbps = 0.0; // non-RNG only
                cells.push_back(std::move(cell));
            }
        }
    }
    const auto results = bench::runCellsOrExit(sweep, cells);

    for (std::size_t g = 0; g < groups.size(); ++g) {
        std::vector<double> lengths;
        std::uint64_t below = 0;
        for (unsigned m = 0; m < 4; ++m) {
            const auto &res = results[g * 4 + m].result;
            for (std::uint32_t len : res.idlePeriods) {
                lengths.push_back(len);
                below += len < gen64;
            }
        }
        const BoxSummary box = boxSummary(lengths);
        t.addRow({std::string(1, groups[g].cat) + "(" +
                      std::to_string(groups[g].cores) + ")",
                  bench::num(box.min, 0), bench::num(box.q1, 0),
                  bench::num(box.median, 0), bench::num(box.q3, 0),
                  bench::num(box.max, 0),
                  bench::num(lengths.empty() ? 0.0
                                             : 100.0 * below /
                                                   lengths.size(),
                             1)});
    }
    t.print(std::cout);
    std::cout << "\n64-bit generation latency: " << gen64
              << " bus cycles.\nPaper shape: 84.3% of idle periods are "
                 "below the generation threshold; idle\nperiods shrink "
                 "with more cores and higher memory intensity.\n";
    return 0;
}
