/**
 * @file
 * Figure 5: distribution of DRAM idle period lengths (in bus cycles) of
 * the medium/high-intensity applications running alone, against the time
 * needed to generate a 64-bit random number.
 */

#include <iostream>

#include "bench_util.h"
#include "sim/lockstep.h"

using namespace dstrange;

int
main()
{
    bench::banner("Figure 5: DRAM idle period length distribution",
                  "box plot per application; line = 64-bit generation "
                  "latency");

    const sim::SimConfig base = bench::baseConfig();
    const Cycle gen64 =
        base.mechanism.demandLatency(64, base.geometry.channels);

    TablePrinter t;
    t.setHeader({"app", "min", "q1", "median", "q3", "max", "samples",
                 "% >= gen64"});

    for (const std::string &app : workloads::paperPlottedApps()) {
        sim::SimConfig cfg = base;
        sim::DesignRegistry::instance().apply("oblivious", cfg);
        const auto sys_ptr = sim::runSystem(cfg, [&] {
            std::vector<std::unique_ptr<cpu::TraceSource>> traces;
            traces.push_back(std::make_unique<workloads::SyntheticTrace>(
                workloads::appByName(app), cfg.geometry, 0, cfg.seed));
            return traces;
        });
        const sim::System &sys = *sys_ptr;

        std::vector<double> lengths;
        std::uint64_t over = 0;
        for (unsigned ch = 0; ch < sys.mc().numChannels(); ++ch) {
            for (std::uint32_t len : sys.mc().idlePeriods(ch)) {
                lengths.push_back(len);
                over += len >= gen64;
            }
        }
        const BoxSummary box = boxSummary(lengths);
        t.addRow({app, bench::num(box.min, 0), bench::num(box.q1, 0),
                  bench::num(box.median, 0), bench::num(box.q3, 0),
                  bench::num(box.max, 0), std::to_string(lengths.size()),
                  bench::num(lengths.empty()
                                 ? 0.0
                                 : 100.0 * over / lengths.size(),
                             1)});
    }
    t.print(std::cout);
    std::cout << "\n64-bit on-demand generation latency (4 channels): "
              << gen64 << " bus cycles.\n"
              << "Paper shape: for most applications the bulk of idle "
                 "periods is shorter than\nthe 64-bit generation time, "
                 "motivating 8-bit fill batches.\n";
    return 0;
}
