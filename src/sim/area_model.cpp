#include "sim/area_model.h"

namespace dstrange::sim {

namespace {

// Fitted to the paper's CACTI 6.0 outputs at 22 nm (see header).
constexpr double kMm2PerBit = 1.45e-7; // ~6T cell + array overhead.
constexpr double kPeripheryMm2 = 0.0015;

/** Bits in one RNG request queue entry: core id, token, age, progress. */
constexpr double kRngQueueEntryBits = 64.0;

} // namespace

AreaEstimate
sramMacroArea(double bits)
{
    AreaEstimate a;
    a.storageBits = bits;
    a.mm2 = kPeripheryMm2 + kMm2PerBit * bits;
    return a;
}

AreaEstimate
drStrangeArea(const mem::McConfig &cfg, unsigned channels)
{
    double bits = 0.0;

    // Random number buffer: 64-bit entries.
    bits += static_cast<double>(cfg.bufferCapacity()) * 64.0;

    // RNG request queue.
    if (cfg.rngAwareQueueing)
        bits += static_cast<double>(mem::kRngQueueCap) * kRngQueueEntryBits;

    // Idleness predictor storage.
    if (cfg.fillMode() == mem::FillMode::Engine) {
        switch (cfg.predictorKind()) {
          case strange::PredictorKind::None:
            break;
          case strange::PredictorKind::Rl:
            // Q table: 2 actions x 2^stateBits states x 4-byte Q values,
            // plus the 10-bit history register per channel.
            bits += 2.0 * static_cast<double>(1u << cfg.rlConfig().stateBits) *
                        32.0 +
                    channels * 10.0;
            break;
          case strange::PredictorKind::Simple:
            // 2-bit counters per entry, one table per channel, plus the
            // last-address register and idle-length counter per channel.
            bits += static_cast<double>(mem::kPredictorEntries) * 2.0 *
                        channels +
                    channels * (48.0 + 16.0);
            break;
        }
    }
    return sramMacroArea(bits);
}

} // namespace dstrange::sim
