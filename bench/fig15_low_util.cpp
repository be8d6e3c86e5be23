/**
 * @file
 * Figure 15: impact of low-utilization prediction — DR-STRaNGe with the
 * low-utilization threshold disabled (0) vs the default (4), against
 * the RNG-oblivious baseline.
 */

#include <iostream>

#include "bench_util.h"

using namespace dstrange;

int
main()
{
    bench::banner("Figure 15: low-utilization prediction",
                  "threshold 0 (idle-only fill) vs threshold 4");

    sim::SweepRunner sweep = bench::baseSweepRunner();
    const std::vector<std::string> designs = {
        "oblivious", "drstrange-nolowutil", "drstrange"};
    const auto mixes = workloads::dualCorePlottedMixes(5120.0);
    const auto results = bench::runCellsOrExit(
        sweep, sim::SweepRunner::grid(designs, mixes));

    std::vector<double> non_rng[3], rng[3];
    TablePrinter t;
    t.setHeader({"workload", "nonRNG:obliv", "nonRNG:thr0",
                 "nonRNG:thr4", "RNG:obliv", "RNG:thr0", "RNG:thr4"});

    for (std::size_t i = 0; i < mixes.size(); ++i) {
        std::vector<std::string> row{mixes[i].apps[0]};
        double cells[2][3];
        for (unsigned d = 0; d < 3; ++d) {
            const auto &res = results[i * designs.size() + d].result;
            cells[0][d] = res.avgNonRngSlowdown();
            cells[1][d] = res.rngSlowdown();
            non_rng[d].push_back(cells[0][d]);
            rng[d].push_back(cells[1][d]);
        }
        for (unsigned m = 0; m < 2; ++m)
            for (unsigned d = 0; d < 3; ++d)
                row.push_back(bench::num(cells[m][d]));
        t.addRow(row);
    }
    std::vector<std::string> avg{"AVG"};
    for (unsigned m = 0; m < 2; ++m)
        for (unsigned d = 0; d < 3; ++d)
            avg.push_back(bench::num(mean(m == 0 ? non_rng[d] : rng[d])));
    t.addRow(avg);
    t.print(std::cout);

    std::cout << "\nThreshold 4 vs threshold 0: non-RNG "
              << bench::num((mean(non_rng[1]) - mean(non_rng[2])) /
                                mean(non_rng[1]) * 100.0,
                            1)
              << "% lower, RNG "
              << bench::num((mean(rng[1]) - mean(rng[2])) / mean(rng[1]) *
                                100.0,
                            1)
              << "% lower (paper: 5.5% and 11.7%).\n";
    return 0;
}
