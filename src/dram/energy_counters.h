/**
 * @file
 * Command and state-residency counters feeding the energy model. Every
 * dram::DramChannel keeps one, whichever timing-table row it runs on
 * (the DDR model or the fixed-latency row), so the energy model and
 * telemetry read one structure regardless of timing model.
 */

#ifndef DSTRANGE_DRAM_ENERGY_COUNTERS_H
#define DSTRANGE_DRAM_ENERGY_COUNTERS_H

#include <cstdint>

namespace dstrange::dram {

/** Command and state-residency counters feeding the energy model. */
struct ChannelEnergyCounters
{
    std::uint64_t nAct = 0;
    std::uint64_t nPre = 0;
    std::uint64_t nRd = 0;
    std::uint64_t nWr = 0;
    std::uint64_t nRef = 0;
    /** TRNG rounds executed on this channel (see trng/rng_engine.h). */
    std::uint64_t rngRounds = 0;
    /** Cycles with at least one bank open (active standby). */
    std::uint64_t cyclesActive = 0;
    /** Cycles with all banks closed (precharge standby). */
    std::uint64_t cyclesPrecharged = 0;
    /** Cycles in precharge power-down (reduced background power). */
    std::uint64_t cyclesPoweredDown = 0;
};

} // namespace dstrange::dram

#endif // DSTRANGE_DRAM_ENERGY_COUNTERS_H
