/**
 * @file
 * Figure 8: slowdown of the RNG application in (a) 4-core workload
 * groups and (b) 4-, 8-, 16-core L/M/H groups, for the RNG-oblivious
 * baseline, the Greedy Idle design, and DR-STRaNGe.
 */

#include <iostream>

#include "bench_util.h"

using namespace dstrange;

namespace {

/** Per-group mean RNG slowdown of the three designs, from cells laid
 *  out in sim::SweepRunner::grid() order (three designs per mix). */
void
addGroupRow(TablePrinter &t,
            const std::vector<sim::SweepRunner::CellResult> &results,
            const std::vector<workloads::WorkloadSpec> &mixes,
            const std::string &group)
{
    std::vector<double> obliv, greedy, dr;
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        if (mixes[m].group != group)
            continue;
        obliv.push_back(results[m * 3 + 0].result.rngSlowdown());
        greedy.push_back(results[m * 3 + 1].result.rngSlowdown());
        dr.push_back(results[m * 3 + 2].result.rngSlowdown());
    }
    t.addRow({group, bench::num(mean(obliv)), bench::num(mean(greedy)),
              bench::num(mean(dr))});
}

} // namespace

int
main()
{
    bench::banner("Figure 8: multi-core RNG application slowdown",
                  "RNG app slowdown vs. single-core baseline execution");

    sim::SimConfig base = bench::baseConfig();
    base.instrBudget = std::min<std::uint64_t>(base.instrBudget, 60000);
    const std::uint64_t seed = base.seed;

    std::vector<std::string> group_labels;
    const std::vector<workloads::WorkloadSpec> mixes =
        bench::multiCoreSweepMixes(seed, &group_labels);
    const std::vector<std::string> designs = {"oblivious", "greedy",
                                              "drstrange"};
    sim::SweepRunner sweep(base);
    const auto results = bench::runCellsOrExit(
        sweep, sim::SweepRunner::grid(designs, mixes));

    TablePrinter t;
    t.setHeader({"group", "RNG-Oblivious", "Greedy", "DR-STRANGE"});

    for (const std::string group : {"LLLS", "LLHS", "LHHS", "HHHS"})
        addGroupRow(t, results, mixes, group);

    for (const std::string &label : group_labels)
        addGroupRow(t, results, mixes, label);

    t.print(std::cout);
    std::cout << "\nPaper shape: DR-STRaNGe improves RNG-app performance "
                 "in every group (17.8% avg\nfor 4-core groups) and at "
                 "least matches the Greedy Idle design.\n";
    return 0;
}
