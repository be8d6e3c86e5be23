/**
 * @file
 * Figure 7: normalized weighted speedup of non-RNG applications in (a)
 * the four 4-core workload groups and (b) 4-, 8-, 16-core L/M/H groups,
 * for the Greedy Idle design and DR-STRaNGe, normalized to the
 * RNG-oblivious baseline.
 */

#include <iostream>

#include "bench_util.h"

using namespace dstrange;

namespace {

/**
 * Geomean of Greedy and DR-STRaNGe WS normalized to Oblivious, over
 * the cells of @p results whose mix belongs to @p group. Cell layout is
 * sim::SweepRunner::grid() order: three designs (oblivious, greedy,
 * drstrange) per mix.
 */
std::pair<double, double>
normalizedWs(const std::vector<sim::SweepRunner::CellResult> &results,
             const std::vector<workloads::WorkloadSpec> &mixes,
             const std::string &group)
{
    std::vector<double> greedy, dr;
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        if (mixes[m].group != group)
            continue;
        const double base =
            results[m * 3 + 0].result.weightedSpeedupNonRng;
        greedy.push_back(
            results[m * 3 + 1].result.weightedSpeedupNonRng / base);
        dr.push_back(
            results[m * 3 + 2].result.weightedSpeedupNonRng / base);
    }
    return {geomean(greedy), geomean(dr)};
}

} // namespace

int
main()
{
    bench::banner("Figure 7: multi-core normalized weighted speedup",
                  "non-RNG weighted speedup vs. RNG-oblivious baseline");

    sim::SimConfig base = bench::baseConfig();
    base.instrBudget = std::min<std::uint64_t>(base.instrBudget, 60000);
    const std::uint64_t seed = base.seed;

    // One flat grid over every group's mixes; cells fan out across the
    // worker pool and come back in deterministic grid order.
    std::vector<std::string> group_labels;
    const std::vector<workloads::WorkloadSpec> mixes =
        bench::multiCoreSweepMixes(seed, &group_labels);
    const std::vector<std::string> designs = {"oblivious", "greedy",
                                              "drstrange"};
    sim::SweepRunner sweep(base);
    const auto results = bench::runCellsOrExit(
        sweep, sim::SweepRunner::grid(designs, mixes));

    TablePrinter t;
    t.setHeader({"group", "Greedy", "DR-STRANGE"});

    // (a) Four-core groups.
    std::vector<double> all_greedy, all_dr;
    for (const std::string group : {"LLLS", "LLHS", "LHHS", "HHHS"}) {
        const auto [g, d] = normalizedWs(results, mixes, group);
        t.addRow({group, bench::num(g), bench::num(d)});
        all_greedy.push_back(g);
        all_dr.push_back(d);
    }
    t.addRow({"GMEAN(4-core)", bench::num(geomean(all_greedy)),
              bench::num(geomean(all_dr))});

    // (b) L/M/H groups at 4, 8, 16 cores.
    for (const std::string &label : group_labels) {
        const auto [g, d] = normalizedWs(results, mixes, label);
        t.addRow({label, bench::num(g), bench::num(d)});
    }

    t.print(std::cout);
    std::cout << "\nPaper shape: DR-STRaNGe improves 4-core weighted "
                 "speedup by 7.6% on average,\nmore for memory-intensive "
                 "groups; 12.1/8.2/6.1% for H/M/L groups.\n";
    return 0;
}
