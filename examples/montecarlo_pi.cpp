/**
 * @file
 * Monte Carlo example: estimate pi with true random numbers drawn from
 * the simulated DRAM TRNG through the getrandom()-style RandomDevice,
 * and compare the random-number acquisition cost on the RNG-oblivious
 * baseline vs DR-STRaNGe. Monte Carlo methods are one of the paper's
 * motivating application classes (Section 1).
 */

#include <cstdint>
#include <iostream>

#include "common/env_util.h"
#include "drstrange.h"

using namespace dstrange;

namespace {

/** Draw points in the unit square; count hits inside the quarter disc. */
double
estimatePi(api::RandomDevice &dev, unsigned samples, double &rng_time_ns)
{
    std::uint64_t inside = 0;
    rng_time_ns = 0.0;
    for (unsigned i = 0; i < samples; ++i) {
        const auto res = dev.getRandom(16); // two doubles worth of bits
        rng_time_ns += res.latencyNs;

        std::uint64_t xw = 0, yw = 0;
        for (int b = 0; b < 8; ++b) {
            xw |= static_cast<std::uint64_t>(res.bytes[b]) << (8 * b);
            yw |= static_cast<std::uint64_t>(res.bytes[8 + b]) << (8 * b);
        }
        const double x = static_cast<double>(xw >> 11) * 0x1.0p-53;
        const double y = static_cast<double>(yw >> 11) * 0x1.0p-53;
        if (x * x + y * y <= 1.0)
            ++inside;

        // The application computes between draws; the device is idle and
        // DR-STRaNGe refills its buffer.
        dev.idle(50.0);
    }
    return 4.0 * static_cast<double>(inside) / samples;
}

} // namespace

int
main()
{
    // Default matches the paper-scale demo; DS_MC_SAMPLES lets CI smoke
    // tests run a reduced draw count.
    const unsigned kSamples =
        static_cast<unsigned>(envU64("DS_MC_SAMPLES", 20000));

    TablePrinter t;
    t.setHeader({"design", "pi estimate", "total RNG wait (us)",
                 "avg ns/draw"});

    const sim::DesignRegistry &registry = sim::DesignRegistry::instance();
    for (const char *design : {"oblivious", "drstrange"}) {
        api::RandomDevice::Config cfg;
        registry.apply(design, cfg.sim);
        api::RandomDevice dev(cfg);
        double rng_ns = 0.0;
        const double pi = estimatePi(dev, kSamples, rng_ns);
        t.addRow({registry.displayName(design), TablePrinter::num(pi, 4),
                  TablePrinter::num(rng_ns / 1000.0, 1),
                  TablePrinter::num(rng_ns / kSamples, 1)});
    }

    std::cout << "Monte Carlo pi with " << kSamples
              << " draws of 128 random bits each:\n\n";
    t.print(std::cout);
    std::cout << "\nDR-STRaNGe's random number buffer hides the TRNG "
                 "latency: draws are served\nfrom the buffer refilled "
                 "during the application's compute phases.\n";
    return 0;
}
