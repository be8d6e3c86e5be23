#include "api/random_device.h"

#include <cmath>

namespace dstrange::api {

RandomDevice::RandomDevice() : RandomDevice(Config{})
{
}

RandomDevice::RandomDevice(const Config &config)
    : cfg(config), entropy(mix64(config.sim.seed) ^ 0xfeed)
{
    mc = std::make_unique<mem::MemoryController>(cfg.sim, /*ports=*/1);
    mc->setCompletionCallback(
        [this](CoreId, std::uint64_t, mem::ReqType, mem::ServePath) {
            completions++;
        });
}

void
RandomDevice::tick()
{
    mc->tick(now);
    now++;
}

RandomDevice::Result
RandomDevice::getRandom(std::size_t n_bytes)
{
    Result res;
    const std::uint64_t words =
        std::max<std::uint64_t>(1, (n_bytes * 8 + 63) / 64);

    const Cycle start = now;
    const std::uint64_t buffer_hits_before =
        mc->stats().rngServedFromBuffer;

    std::uint64_t submitted = 0;
    const std::uint64_t target = completions + words;
    while (completions < target) {
        if (submitted < words) {
            mem::Request req;
            req.type = mem::ReqType::Rng;
            req.core = 0;
            req.token = nextToken;
            if (mc->enqueue(req, now)) {
                nextToken++;
                submitted++;
            }
        }
        tick();
    }

    res.bytes = entropy.nextBytes(n_bytes);
    res.latencyNs =
        static_cast<double>(now - start) * cfg.sim.timings.tCKns;
    res.servedFromBuffer =
        mc->stats().rngServedFromBuffer - buffer_hits_before == words;
    return res;
}

void
RandomDevice::idle(double ns)
{
    const auto cycles =
        static_cast<Cycle>(std::ceil(ns / cfg.sim.timings.tCKns));
    for (Cycle i = 0; i < cycles; ++i)
        tick();
}

double
RandomDevice::bufferLevelBits() const
{
    const strange::BufferSet *buf = mc->buffer();
    return buf ? buf->levelBits() : 0.0;
}

double
RandomDevice::elapsedNs() const
{
    return static_cast<double>(now) * cfg.sim.timings.tCKns;
}

} // namespace dstrange::api
