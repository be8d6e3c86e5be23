#include "sim/sim_config.h"

#include <algorithm>

namespace dstrange::sim {

mem::McConfig
mcConfigFor(const SimConfig &cfg)
{
    mem::McConfig mc;
    mc.scheduler = cfg.scheduler;
    mc.rngAwareQueueing = cfg.rngAwareQueueing;
    mc.bufferEntries = cfg.buffering ? cfg.bufferEntries : 0;
    mc.bufferPartitions = cfg.buffering ? cfg.bufferPartitions : 0;
    mc.fill = cfg.buffering ? mem::fillModeFromName(cfg.fillPolicy)
                            : mem::FillMode::None;
    mc.predictor = cfg.predictor;
    mc.lowUtilThreshold = cfg.lowUtilFill ? cfg.lowUtilThreshold : 0;
    mc.fillPlacement = mem::fillPlacementFromName(cfg.fillPlacement);
    mc.addressMapping = cfg.addressMapping;
    if (cfg.predictor == "rl")
        mc.rlConfig.seed = cfg.seed * 7919 + 17;

    // A fill session cannot abort once a round starts, so an idle period
    // only counts as "long" if it covers a whole session of the
    // mechanism used for filling. For D-RaNGe this resolves to the
    // paper's 40-cycle PeriodThreshold; QUAC-TRNG's long rounds need
    // more room.
    const trng::TrngMechanism &fill_mech =
        cfg.fillMechanism.value_or(cfg.mechanism);
    mc.fillMechanism = cfg.fillMechanism;
    mc.periodThreshold = std::max<Cycle>(
        40, fill_mech.switchInLatency + fill_mech.roundLatency +
                fill_mech.switchOutLatency);
    mc.powerDownThreshold = cfg.powerDownThreshold;
    mc.backend = cfg.backend;
    mc.backendReadLatency = cfg.backendReadLatency;
    mc.backendWriteLatency = cfg.backendWriteLatency;
    mc.backendGap = cfg.backendGap;
    mc.fault = cfg.fault;
    return mc;
}

} // namespace dstrange::sim
