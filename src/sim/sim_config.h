/**
 * @file
 * System-level configuration as a set of *orthogonal policy knobs* —
 * intra-queue scheduler, RNG-queue policy, buffering, buffer-fill
 * policy, idleness predictor, low-utilization fill — plus the numeric
 * parameters they consume. The paper's nine named system designs are
 * presets over this policy space (sim::kPaperDesigns, applied through
 * sim::DesignRegistry); nothing in the construction path switches on a
 * design, so new policies registered in mem::SchedulerRegistry /
 * strange::PredictorRegistry or sim::DesignRegistry compose with every
 * existing sweep.
 */

#ifndef DSTRANGE_SIM_SIM_CONFIG_H
#define DSTRANGE_SIM_SIM_CONFIG_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dram/address_mapper.h"
#include "dram/dram_timings.h"
#include "fault/fault_config.h"
#include "mem/memory_controller.h"
#include "service/service_config.h"
#include "trng/trng_mechanism.h"

namespace dstrange::sim {

/**
 * Full simulation configuration. The first block is the composable
 * policy space; a default-constructed SimConfig selects the full
 * DR-STRaNGe design (the "drstrange" row of sim::kPaperDesigns).
 */
struct SimConfig
{
    // --- Policy knobs ------------------------------------------------
    /** Intra-queue scheduler (mem::SchedulerRegistry key). */
    std::string scheduler = "fr-fcfs-cap";
    /** Separate RNG queue + RNG-aware arbitration (vs. oblivious
     *  all-channel preemption on RNG arrival). */
    bool rngAwareQueueing = true;
    /** Random number buffer on/off (bufferEntries sizes it when on). */
    bool buffering = true;
    /** Buffer-fill policy when buffering: "none", "greedy-oracle", or
     *  "engine" (see mem::FillMode). */
    std::string fillPolicy = "engine";
    /** Idleness predictor gating engine fill
     *  (strange::PredictorRegistry key; "none" = simple buffering). */
    std::string predictor = "simple";
    /** Also fill during low-utilization (not just idle) periods. */
    bool lowUtilFill = true;
    /** Physical-address interleaving policy
     *  (dram::MappingRegistry key). */
    std::string addressMapping = "row-bank-col-ch";
    /** Cross-channel placement of engine buffer-fill sessions:
     *  "first-idle" (historical) or "round-robin". */
    std::string fillPlacement = "first-idle";
    /** Per-channel memory-timing model (mem::BackendRegistry key). */
    std::string backend = "ddr4";

    // --- Mechanisms and hardware parameters --------------------------
    trng::TrngMechanism mechanism = trng::TrngMechanism::dRange();
    /** Optional distinct buffer-fill mechanism (hybrid TRNG design,
     *  Section 8.7); empty = same mechanism for demand and fill. */
    std::optional<trng::TrngMechanism> fillMechanism;
    dram::DramTimings timings{};
    dram::DramGeometry geometry{};

    unsigned bufferEntries = 16;   ///< Buffered 64-bit numbers.
    /** Per-application buffer partitions (Section 6 countermeasure);
     *  0/1 = one shared buffer. */
    unsigned bufferPartitions = 0;
    unsigned lowUtilThreshold = 4; ///< Queue occupancy bound (lowUtilFill).
    /** Precharge power-down after this many idle cycles (0 = off). */
    Cycle powerDownThreshold = 0;

    /** "fixed-latency" backend parameters (ignored by "ddr4"). */
    Cycle backendReadLatency = 20;
    Cycle backendWriteLatency = 20;
    Cycle backendGap = 4;

    std::uint64_t instrBudget = 300000; ///< Per-core retired instructions.
    Cycle maxBusCycles = 40'000'000;    ///< Safety bound.

    /** Per-core OS priorities (empty = all equal). */
    std::vector<int> priorities;

    std::uint64_t seed = 1; ///< Master seed for traces and entropy.

    /** Open-loop RNG-as-a-service layer (off by default; orthogonal to
     *  the design presets, which never touch it). */
    service::ServiceConfig service;

    /** Deterministic fault injection (off by default — no models
     *  listed; orthogonal to the design presets). */
    fault::FaultConfig fault;

    /** Record the controller-boundary request stream to this file
     *  (empty = off; see trace/trace_writer.h). */
    std::string traceRecord;
    /** Replay a recorded request stream instead of simulating cores
     *  (empty = off; see trace/trace_replay_source.h). */
    std::string traceReplay;
};

/** Map the policy knobs onto the memory controller configuration. */
mem::McConfig mcConfigFor(const SimConfig &cfg);

} // namespace dstrange::sim

#endif // DSTRANGE_SIM_SIM_CONFIG_H
