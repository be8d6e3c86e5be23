#include "trng/trng_mechanism.h"

#include <cassert>
#include <cmath>

namespace dstrange::trng {

double
TrngMechanism::perChannelThroughputMbps() const
{
    return bitsPerRound / static_cast<double>(roundLatency) * kBusFreqHz /
           1e6;
}

double
TrngMechanism::systemThroughputMbps(unsigned channels) const
{
    return perChannelThroughputMbps() * channels;
}

Cycle
TrngMechanism::demandLatency(unsigned bits, unsigned channels) const
{
    assert(channels > 0);
    const double bits_per_channel =
        static_cast<double>(bits) / static_cast<double>(channels);
    const auto rounds = static_cast<Cycle>(
        std::ceil(bits_per_channel / bitsPerRound));
    return switchInLatency + rounds * roundLatency + switchOutLatency;
}

std::optional<TrngMechanism>
TrngMechanism::byName(std::string_view name)
{
    if (name == "drange" || name == "D-RaNGe")
        return dRange();
    if (name == "quac" || name == "QUAC-TRNG")
        return quacTrng();
    return std::nullopt;
}

TrngMechanism
TrngMechanism::dRange()
{
    TrngMechanism m;
    m.name = "D-RaNGe";
    // One round pipelines reduced-tRCD reads across the banks of a
    // channel and harvests 8 random bits (one RNG cell per bank).
    // Sustained: 8 b / 5 cyc * 800 MHz = 1.28 Gb/s per channel. The
    // calibration is system-level: with the paper's most intensive RNG
    // benchmark (one blocking 64-bit request per ~150 instructions) the
    // on-demand latency of 5 + 2*5 + 3 = 18 bus cycles across 4 channels
    // reproduces the baseline's ~60-70%% RNG channel occupancy and the
    // resulting non-RNG slowdowns of Figures 1 and 6. A fill session
    // interrupted during the switch-in (timing-parameter swap) aborts
    // and yields nothing, which is what makes idle-period *prediction*
    // profitable over unconditional filling (Fig. 13). The
    // ReproductionBands tests in tests/regression_test.cpp pin the
    // calibrated end-to-end behaviour.
    m.bitsPerRound = 8.0;
    m.roundLatency = 5;
    m.switchInLatency = 5;
    m.switchOutLatency = 3;
    return m;
}

TrngMechanism
TrngMechanism::quacTrng()
{
    TrngMechanism m;
    m.name = "QUAC-TRNG";
    // One QUAC round (quadruple activation over a 64-byte-wide segment +
    // SHA-256 post-processing) yields 512 bits; sustained 512 b / 119 cyc
    // * 800 MHz = 3.44 Gb/s per channel, with a much higher 64-bit demand
    // latency than D-RaNGe: a full 119-cycle round must complete before
    // the first 64 bits are available.
    m.bitsPerRound = 512.0;
    m.roundLatency = 119;
    m.switchInLatency = 16;
    m.switchOutLatency = 12;
    return m;
}

TrngMechanism
TrngMechanism::withSystemThroughput(double mbps, unsigned channels)
{
    assert(mbps > 0.0 && channels > 0);
    TrngMechanism m = dRange();
    m.name = "sweep-" + std::to_string(static_cast<int>(mbps)) + "Mbps";
    const double per_channel = mbps / channels;
    // Hold D-RaNGe's round latency fixed (the paper's Figure 2 isolates
    // throughput) and scale the per-round yield.
    m.bitsPerRound = per_channel * 1e6 *
                     (static_cast<double>(m.roundLatency) / kBusFreqHz);
    return m;
}

} // namespace dstrange::trng
