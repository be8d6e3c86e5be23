/**
 * @file
 * Figure 16: performance and fairness of dual-core workloads in a system
 * that uses QUAC-TRNG — higher sustained throughput but higher 64-bit
 * latency than D-RaNGe — for the three designs.
 */

#include <iostream>

#include "bench_util.h"

using namespace dstrange;

int
main()
{
    bench::banner("Figure 16: QUAC-TRNG end-to-end",
                  "DR-STRaNGe compatibility with a second TRNG mechanism");

    sim::SimConfig base = bench::baseConfig();
    base.mechanism = trng::TrngMechanism::quacTrng();
    sim::SweepRunner sweep(base);

    const std::vector<std::string> designs = {"oblivious", "greedy",
                                              "drstrange"};
    const auto mixes = workloads::dualCorePlottedMixes(5120.0);
    const auto results = bench::runCellsOrExit(
        sweep, sim::SweepRunner::grid(designs, mixes));

    std::vector<double> non_rng[3], rng[3], unf[3];
    TablePrinter t;
    t.setHeader({"workload", "nonRNG:obliv", "nonRNG:greedy",
                 "nonRNG:drstr", "RNG:obliv", "RNG:greedy", "RNG:drstr",
                 "unf:obliv", "unf:greedy", "unf:drstr"});

    for (std::size_t mi = 0; mi < mixes.size(); ++mi) {
        std::vector<std::string> row{mixes[mi].apps[0]};
        double cells[3][3];
        for (unsigned d = 0; d < 3; ++d) {
            const auto &res = results[mi * designs.size() + d].result;
            cells[0][d] = res.avgNonRngSlowdown();
            cells[1][d] = res.rngSlowdown();
            cells[2][d] = res.unfairnessIndex;
            non_rng[d].push_back(cells[0][d]);
            rng[d].push_back(cells[1][d]);
            unf[d].push_back(cells[2][d]);
        }
        for (unsigned m = 0; m < 3; ++m)
            for (unsigned d = 0; d < 3; ++d)
                row.push_back(bench::num(cells[m][d]));
        t.addRow(row);
    }
    std::vector<std::string> avg{"AVG"};
    for (unsigned m = 0; m < 3; ++m) {
        for (unsigned d = 0; d < 3; ++d) {
            avg.push_back(bench::num(
                mean(m == 0 ? non_rng[d] : m == 1 ? rng[d] : unf[d])));
        }
    }
    t.addRow(avg);
    t.print(std::cout);

    std::cout << "\nDR-STRaNGe vs RNG-Oblivious with QUAC-TRNG: non-RNG "
              << bench::num((mean(non_rng[0]) - mean(non_rng[2])) /
                                mean(non_rng[0]) * 100.0,
                            1)
              << "% lower, RNG "
              << bench::num((mean(rng[0]) - mean(rng[2])) / mean(rng[0]) *
                                100.0,
                            1)
              << "% lower, unfairness "
              << bench::num(
                     (mean(unf[0]) - mean(unf[2])) / mean(unf[0]) * 100.0,
                     1)
              << "% lower (paper: 18.2%, 17.2%, 10.9%).\n";
    return 0;
}
