/**
 * @file
 * Section 6 security analysis, made quantitative:
 *
 * 1. Timing side channel: an attacker that measures its own random
 *    number latency can tell whether the shared buffer was empty, and
 *    thereby whether a victim is consuming random numbers. We measure
 *    the attacker's detection accuracy with a shared buffer vs with
 *    per-application buffer partitions (the paper's countermeasure).
 *
 * 2. Covert channel: a sender signals bits by draining (1) or not
 *    draining (0) the buffer; the receiver decodes via its own latency.
 *    We report raw channel accuracy with and without partitioning.
 */

#include <iostream>

#include "bench_util.h"
#include "mem/memory_controller.h"

using namespace dstrange;

namespace {

/** Harness: a victim/sender (core 0) and an attacker/receiver (core 1)
 *  sharing one DR-STRaNGe memory controller, driven cycle by cycle. */
class Channel
{
  public:
    explicit Channel(unsigned partitions)
    {
        sim::SimConfig sc;
        sim::DesignRegistry::instance().apply("drstrange", sc);
        sc.bufferPartitions = partitions;
        mc = std::make_unique<mem::MemoryController>(sc, 2);
        mc->setCompletionCallback(
            [this](CoreId core, std::uint64_t, mem::ReqType,
                   mem::ServePath) { done[core]++; });
    }

    /** Let the buffer fill. */
    void
    fill(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i)
            mc->tick(now++);
    }

    /** Issue @p n RNG requests for @p core and wait for completion;
     *  returns total latency in cycles. */
    Cycle
    drain(CoreId core, unsigned n)
    {
        const Cycle start = now;
        for (unsigned i = 0; i < n; ++i) {
            const std::uint64_t target = done[core] + 1;
            mem::Request req;
            req.type = mem::ReqType::Rng;
            req.core = core;
            req.token = token++;
            while (!mc->enqueue(req, now))
                mc->tick(now++);
            while (done[core] < target)
                mc->tick(now++);
        }
        return now - start;
    }

  private:
    std::unique_ptr<mem::MemoryController> mc;
    Cycle now = 0;
    std::uint64_t token = 0;
    std::uint64_t done[2] = {0, 0};
};

/**
 * Transmit @p bits covert bits; the receiver decodes by comparing its
 * own drain latency against a threshold calibrated on the fly.
 * @return fraction of bits decoded correctly.
 */
double
covertChannelAccuracy(unsigned partitions, const std::vector<bool> &bits)
{
    Channel chan(partitions);
    chan.fill(4000); // warm the buffer

    // Calibrate: latency with a full buffer vs after a sender drain.
    const Cycle fast = chan.drain(1, 1);
    chan.drain(0, 20); // deplete
    const Cycle slow = chan.drain(1, 1);
    const double threshold = (static_cast<double>(fast) + slow) / 2.0;
    chan.fill(4000);

    unsigned correct = 0;
    for (bool bit : bits) {
        if (bit)
            chan.drain(0, 20); // sender drains the buffer -> slow probe
        const Cycle probe = chan.drain(1, 1);
        const bool decoded = static_cast<double>(probe) > threshold;
        correct += decoded == bit;
        chan.fill(4000); // frame gap: buffer refills
    }
    return static_cast<double>(correct) / bits.size();
}

} // namespace

int
main()
{
    bench::banner("Section 6: buffer side/covert channel analysis",
                  "detection accuracy with shared vs partitioned buffer");

    // A pseudo-random message.
    Xoshiro256ss gen(1234);
    std::vector<bool> message;
    for (int i = 0; i < 64; ++i)
        message.push_back(gen.nextBool(0.5));

    TablePrinter t;
    t.setHeader({"buffer configuration", "covert-channel accuracy",
                 "verdict"});
    for (unsigned partitions : {0u, 2u}) {
        const double acc = covertChannelAccuracy(partitions, message);
        const bool leaky = acc > 0.75;
        t.addRow({partitions == 0 ? "shared (16 entries)"
                                  : "partitioned (2 x 8 entries)",
                  bench::num(acc),
                  leaky ? "channel works (leaky)" : "channel defeated"});
    }
    t.print(std::cout);

    std::cout << "\nPaper Section 6: the shared random number buffer can "
                 "be used as a covert/side\nchannel; partitioning the "
                 "buffer across applications closes it at a small\n"
                 "performance cost (each application sees a smaller "
                 "private buffer).\n";
    return 0;
}
