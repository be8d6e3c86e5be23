/**
 * @file
 * Configuration of the open-loop RNG-as-a-service layer. Kept free of
 * heavy includes so sim/sim_config.h can embed it; all fields travel
 * through the canonical config text as `service.*` keys, so service
 * cells are cacheable like any other sweep cell.
 */

#ifndef DSTRANGE_SERVICE_SERVICE_CONFIG_H
#define DSTRANGE_SERVICE_SERVICE_CONFIG_H

#include <string>

#include "common/types.h"

namespace dstrange::service {

/**
 * Open-loop service-layer knobs. When enabled, the System attaches one
 * extra request port to the memory controller and drives it with the
 * configured arrival process, multiplexing @p clients logical clients
 * onto the simulated machine; per-request latency lands in a
 * LatencyHistogram and the run emits a service::SloReport.
 */
struct ServiceConfig
{
    /** Attach the service layer to the system. */
    bool enabled = false;
    /** Arrival process, one of service::kArrivals: "bursty",
     *  "closed-loop", "diurnal", or "poisson". */
    std::string arrival = "poisson";
    /** Offered RNG load in Mb/s across all clients (one request = one
     *  64-bit number, so 5120 Mb/s is one request per 10 bus cycles). */
    double offeredMbps = 5120.0;
    /** Logical clients multiplexed onto the port. Open-loop processes
     *  use it only for seeding spread; the closed-loop shim caps
     *  requests in flight at this many. */
    unsigned clients = 1024;
    /** Burstiness knob: on/off rate ratio for "bursty", rate-swing
     *  amplitude for "diurnal" (ignored by "poisson"/"closed-loop"). */
    double burstFactor = 4.0;
    /** Period of the "bursty" on/off phases and the "diurnal" rate
     *  schedule, in bus cycles. */
    Cycle periodCycles = 20000;
    /** SLO latency target in bus cycles (end-to-end, arrival to
     *  completion). */
    Cycle sloTargetCycles = 500;
    /** Arrival-generation window in bus cycles; the run then drains
     *  the backlog (until maxBusCycles). */
    Cycle durationCycles = 100000;
    /** Admission-control policy, one of service::kShedPolicies:
     *  "shed-none" (default, bit-identical to an unshedded run),
     *  "shed-priority", or "shed-tail". */
    std::string shed = "shed-none";
    /** Backlog bound consulted by the shedding policies; 0 = auto
     *  (the arrivals that fit inside one SLO window at the configured
     *  offered load — deeper backlogs guarantee SLO misses). */
    std::uint64_t shedLimit = 0;
};

} // namespace dstrange::service

#endif // DSTRANGE_SERVICE_SERVICE_CONFIG_H
