/**
 * @file
 * System-level configuration as a set of *orthogonal policy knobs* —
 * intra-queue scheduler, RNG-queue policy, buffering, buffer-fill
 * policy, idleness predictor, low-utilization fill — plus the numeric
 * parameters they consume (all declared in mem::McConfig) and the
 * run-level knobs declared here. The paper's nine named system designs
 * are presets over this policy space (sim::kPaperDesigns, applied through
 * sim::DesignRegistry); nothing in the construction path switches on a
 * design, so new policies registered in mem::SchedulerRegistry or
 * sim::DesignRegistry compose with every existing sweep.
 */

#ifndef DSTRANGE_SIM_SIM_CONFIG_H
#define DSTRANGE_SIM_SIM_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

#include "mem/memory_controller.h"
#include "service/service_config.h"

namespace dstrange::sim {

/**
 * Full simulation configuration: the memory system's knobs (inherited
 * from mem::McConfig, the composable policy space first) plus the
 * run-level ones. A default-constructed SimConfig selects the full
 * DR-STRaNGe design (the "drstrange" row of sim::kPaperDesigns).
 */
struct SimConfig : mem::McConfig
{
    std::uint64_t instrBudget = 300000; ///< Per-core retired instructions.
    Cycle maxBusCycles = 40'000'000;    ///< Safety bound.

    /** Per-core OS priorities (empty = all equal). */
    std::vector<int> priorities;

    /** Open-loop RNG-as-a-service layer (off by default; orthogonal to
     *  the design presets, which never touch it). */
    service::ServiceConfig service;

    /** Record the controller-boundary request stream to this file
     *  (empty = off; see trace/trace_writer.h). */
    std::string traceRecord;
    /** Replay a recorded request stream instead of simulating cores
     *  (empty = off; see trace/trace_replay_source.h). */
    std::string traceReplay;
};

} // namespace dstrange::sim

#endif // DSTRANGE_SIM_SIM_CONFIG_H
