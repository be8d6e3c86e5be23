#include "sim/area_model.h"

#include "strange/predictor_registry.h"

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

    // Idleness predictor: each registry entry prices its own storage
    // (custom predictors without a storage model count as 0 bits).
    if (cfg.fillMode() == mem::FillMode::Engine) {
        strange::PredictorAreaContext actx;
        actx.channels = channels;
        actx.tableEntries = mem::kPredictorEntries;
        actx.rlConfig = cfg.rlConfig();
        bits += strange::PredictorRegistry::instance().storageBits(
            cfg.predictor, actx);
    }
    return sramMacroArea(bits);
}

} // namespace dstrange::sim
