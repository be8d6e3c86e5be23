/**
 * @file
 * Figure 1: motivation — slowdown of non-RNG (top) and RNG (middle)
 * applications and the system unfairness index (bottom) on the
 * RNG-oblivious baseline, for RNG throughput requirements of 640, 1280,
 * 2560 and 5120 Mb/s. 172 two-core workloads (43 apps x 4 intensities).
 */

#include <iostream>

#include "bench_util.h"

using namespace dstrange;

int
main()
{
    bench::banner("Figure 1: RNG-oblivious baseline motivation",
                  "non-RNG/RNG slowdown and unfairness vs. required RNG "
                  "throughput, 172 workloads");

    sim::Runner runner(bench::baseConfig());
    const double intensities[] = {640.0, 1280.0, 2560.0, 5120.0};

    TablePrinter per_app;
    per_app.setHeader({"workload(5120)", "non-RNG slowdown",
                       "RNG slowdown", "unfairness"});

    TablePrinter summary;
    summary.setHeader({"RNG throughput", "avg non-RNG slowdown",
                       "avg RNG slowdown", "avg unfairness"});

    for (double mbps : intensities) {
        std::vector<double> non_rng, rng, unf;
        for (const auto &mix : workloads::dualCoreMixes(mbps)) {
            const auto res =
                runner.run("oblivious", mix);
            non_rng.push_back(res.avgNonRngSlowdown());
            rng.push_back(res.rngSlowdown());
            unf.push_back(res.unfairnessIndex);
            if (mbps == 5120.0) {
                per_app.addRow({mix.apps[0], bench::num(non_rng.back()),
                                bench::num(rng.back()),
                                bench::num(unf.back())});
            }
        }
        summary.addRow({bench::num(mbps, 0) + " Mb/s",
                        bench::num(mean(non_rng)), bench::num(mean(rng)),
                        bench::num(mean(unf))});
    }

    std::cout << "Per-application rows at 5120 Mb/s "
                 "(paper plots the M/H subset):\n";
    per_app.print(std::cout);
    std::cout << "\nAverages across all 43 workloads per intensity:\n";
    summary.print(std::cout);
    std::cout << "\nPaper shape: non-RNG slowdown and unfairness grow "
                 "with required RNG throughput\n(93.1% avg non-RNG "
                 "slowdown and 2.61 avg unfairness at 5 Gb/s).\n";
    return 0;
}
