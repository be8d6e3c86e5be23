/**
 * @file
 * Figure 2: effect of the DRAM TRNG mechanism's throughput (200 Mb/s to
 * 6.4 Gb/s, D-RaNGe-style latency) on non-RNG application slowdown
 * (left) and system unfairness (right), as box plots over 43 two-core
 * workloads with the 5 Gb/s RNG benchmark.
 */

#include <iostream>

#include "bench_util.h"

using namespace dstrange;

namespace {

void
printBox(TablePrinter &t, const std::string &label, const BoxSummary &box)
{
    t.addRow({label, bench::num(box.min), bench::num(box.q1),
              bench::num(box.median), bench::num(box.q3),
              bench::num(box.max), std::to_string(box.highOutliers)});
}

} // namespace

int
main()
{
    bench::banner("Figure 2: TRNG throughput sweep",
                  "slowdown (left) and unfairness (right) box plots vs. "
                  "TRNG system throughput");

    TablePrinter slowdown_t, unfairness_t;
    const std::vector<std::string> header = {
        "throughput", "min", "q1", "median", "q3", "max", "outliers"};
    slowdown_t.setHeader(header);
    unfairness_t.setHeader(header);

    for (double mbps : {200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0}) {
        sim::SimConfig cfg = bench::baseConfig();
        cfg.mechanism = trng::TrngMechanism::withSystemThroughput(mbps, 4);
        sim::Runner runner(cfg);

        std::vector<double> slowdowns, unfairnesses;
        for (const auto &mix : workloads::dualCoreMixes(5120.0)) {
            const auto res =
                runner.run("oblivious", mix);
            slowdowns.push_back(res.avgNonRngSlowdown());
            unfairnesses.push_back(res.unfairnessIndex);
        }
        const std::string label = bench::num(mbps / 100.0, 0) + "x100Mb/s";
        printBox(slowdown_t, label, boxSummary(slowdowns));
        printBox(unfairness_t, label, boxSummary(unfairnesses));
    }

    std::cout << "Non-RNG slowdown distribution:\n";
    slowdown_t.print(std::cout);
    std::cout << "\nUnfairness distribution:\n";
    unfairness_t.print(std::cout);
    std::cout << "\nPaper shape: both max slowdown (7.3 at 200 Mb/s) and "
                 "max unfairness (8.5)\nfall as TRNG throughput grows and "
                 "saturate around 3.2 Gb/s.\n";
    return 0;
}
