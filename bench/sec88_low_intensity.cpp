/**
 * @file
 * Section 8.8: DR-STRaNGe with low-intensity RNG applications
 * (640 Mb/s). Gains shrink because the baseline's RNG interference is
 * small at this intensity.
 */

#include <iostream>

#include "bench_util.h"

using namespace dstrange;

int
main()
{
    bench::banner("Section 8.8: low-intensity RNG applications",
                  "640 Mb/s RNG requirement, three designs");

    sim::Runner runner(bench::baseConfig());
    std::vector<double> base_non, base_rng, base_unf;
    std::vector<double> dr_non, dr_rng, dr_unf;

    for (const auto &mix : workloads::dualCorePlottedMixes(640.0)) {
        const auto base =
            runner.run("oblivious", mix);
        const auto dr = runner.run("drstrange", mix);
        base_non.push_back(base.avgNonRngSlowdown());
        base_rng.push_back(base.rngSlowdown());
        base_unf.push_back(base.unfairnessIndex);
        dr_non.push_back(dr.avgNonRngSlowdown());
        dr_rng.push_back(dr.rngSlowdown());
        dr_unf.push_back(dr.unfairnessIndex);
    }

    TablePrinter t;
    t.setHeader({"metric", "RNG-Oblivious", "DR-STRANGE", "change"});
    auto row = [&](const char *name, double base, double dr) {
        t.addRow({name, bench::num(base), bench::num(dr),
                  bench::num((base - dr) / base * 100.0, 1) + "%"});
    };
    row("avg non-RNG slowdown", mean(base_non), mean(dr_non));
    row("avg RNG slowdown", mean(base_rng), mean(dr_rng));
    row("avg unfairness", mean(base_unf), mean(dr_unf));
    t.print(std::cout);

    std::cout << "\nPaper shape: modest improvements (4.6% non-RNG, 3.2% "
                 "RNG) and little fairness\nchange — RNG interference is "
                 "already low at 640 Mb/s.\n";
    return 0;
}
