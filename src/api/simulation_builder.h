/**
 * @file
 * Fluent facade over the composable configuration API. One builder
 * covers the whole construction surface: select a named design preset
 * (built-in or registered in sim::DesignRegistry), override individual
 * policy knobs (scheduler / predictor registry keys, buffering, fill,
 * low-utilization mode) and numeric parameters, serialize the result to
 * canonical key=value text (sim/config_text.h), and produce System,
 * Runner, or api::RandomDevice instances.
 *
 *   auto runner = sim::SimulationBuilder()
 *                     .design("drstrange")
 *                     .mechanism("quac")
 *                     .bufferEntries(32)
 *                     .instrBudget(200000)
 *                     .buildRunner();
 */

#ifndef DSTRANGE_API_SIMULATION_BUILDER_H
#define DSTRANGE_API_SIMULATION_BUILDER_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "sim/sim_config.h"
#include "sim/sweep_runner.h"
#include "sim/system.h"

namespace dstrange::sim {

/**
 * Fluent single-entry-point builder over SimConfig: design presets,
 * policy knobs, numeric parameters, canonical config text, and the
 * simulation products (System, Runner, SweepRunner, grid cells) all
 * hang off one chainable object.
 */
class SimulationBuilder
{
  public:
    /** Starts from SimConfig{} defaults (the DR-STRaNGe design). */
    SimulationBuilder() = default;

    /** Starts from an existing configuration. */
    explicit SimulationBuilder(SimConfig base) : cfg(std::move(base)) {}

    /**
     * Parse a builder from canonical key=value text (the format
     * toText() emits; also accepts design=KEY presets).
     * @throws std::invalid_argument on malformed text.
     */
    static SimulationBuilder fromText(const std::string &text);

    // --- Design presets ----------------------------------------------
    /**
     * Reset the policy knobs to a design registered in
     * sim::DesignRegistry (key or display name; covers the paper's
     * kPaperDesigns and user-registered designs).
     * @throws std::out_of_range when unknown.
     */
    SimulationBuilder &design(const std::string &name);

    // --- Policy knobs ------------------------------------------------
    /** Registry-keyed setters validate eagerly: @throws
     *  std::out_of_range when the key is not registered (yet). */
    SimulationBuilder &scheduler(std::string registry_key);
    SimulationBuilder &rngAwareQueueing(bool on);
    SimulationBuilder &buffering(bool on);
    SimulationBuilder &fillPolicy(std::string mode);
    SimulationBuilder &predictor(std::string registry_key);
    SimulationBuilder &lowUtilFill(bool on);
    /** Physical-address interleaving policy (dram::MappingRegistry
     *  key, e.g. "row-bank-col-ch" or "row-bank-col-rank-ch"). */
    SimulationBuilder &addressMapping(std::string registry_key);
    /** Cross-channel placement of engine buffer-fill sessions
     *  ("first-idle" or "round-robin"). */
    SimulationBuilder &fillPlacement(std::string name);
    /** Channel timing model behind the controller
     *  (mem::BackendRegistry key: "ddr4" cycle-accurate, or
     *  "fixed-latency" analytical). */
    SimulationBuilder &backend(std::string registry_key);
    /** Read/write service latency of the fixed-latency backend. */
    SimulationBuilder &backendReadLatency(Cycle cycles);
    SimulationBuilder &backendWriteLatency(Cycle cycles);
    /** Minimum cycles between column commands (fixed-latency). */
    SimulationBuilder &backendGap(Cycle cycles);

    // --- Request-trace capture and replay ----------------------------
    /** Record every accepted controller request to a binary trace at
     *  @p path (written crash-safely when the run finishes). */
    SimulationBuilder &recordTrace(std::string path);
    /** Replay a recorded trace instead of simulating cores/service;
     *  controller-side metrics reproduce the recorded run exactly. */
    SimulationBuilder &replayTrace(std::string path);

    // --- Mechanisms and numeric parameters ---------------------------
    /** TRNG mechanism serving demand RNG requests. */
    SimulationBuilder &mechanism(const trng::TrngMechanism &m);
    /** Built-in mechanism by name ("drange"/"quac").
     *  @throws std::out_of_range when unknown. */
    SimulationBuilder &mechanism(const std::string &name);
    /** Separate mechanism for buffer fills (hybrid designs,
     *  Section 8.7); the default is the demand mechanism. */
    SimulationBuilder &fillMechanism(const trng::TrngMechanism &m);
    SimulationBuilder &fillMechanism(const std::string &name);
    /** Fills use the demand mechanism again (undo fillMechanism()). */
    SimulationBuilder &noFillMechanism();
    SimulationBuilder &timings(const dram::DramTimings &t);
    SimulationBuilder &geometry(const dram::DramGeometry &g);
    SimulationBuilder &bufferEntries(unsigned entries);
    SimulationBuilder &bufferPartitions(unsigned partitions);
    /** Queue-occupancy threshold below which low-util fill kicks in. */
    SimulationBuilder &lowUtilThreshold(unsigned occupancy);
    /** Idle cycles before a rank enters power-down. */
    SimulationBuilder &powerDownThreshold(Cycle cycles);
    /** Per-core instruction budget ending the simulation. */
    SimulationBuilder &instrBudget(std::uint64_t instructions);
    /** Hard bus-cycle cap (0 = none), a safety net over instrBudget. */
    SimulationBuilder &maxBusCycles(Cycle cycles);
    /** Per-core scheduling priorities (empty = all equal). */
    SimulationBuilder &priorities(std::vector<int> per_core);
    SimulationBuilder &seed(std::uint64_t s);

    // --- Open-loop service layer (service::OpenLoopService) ----------
    /** Attach the open-loop RNG request service to the built system. */
    SimulationBuilder &serviceEnabled(bool on);
    /** Arrival process (service::ArrivalRegistry key, e.g. "poisson",
     *  "bursty", "diurnal", "closed-loop").
     *  @throws std::out_of_range when the key is not registered. */
    SimulationBuilder &serviceArrival(std::string registry_key);
    /** Aggregate offered RNG load in Mbps across all logical clients. */
    SimulationBuilder &serviceOfferedMbps(double mbps);
    /** Logical client population (closed-loop concurrency; also the
     *  bursty/diurnal modulation base). */
    SimulationBuilder &serviceClients(unsigned clients);
    /** SLO latency target in bus cycles (requests above it count as
     *  over-SLO in the SloReport). */
    SimulationBuilder &serviceSloTarget(Cycle cycles);
    /** Bus cycles over which new requests are generated. */
    SimulationBuilder &serviceDuration(Cycle cycles);
    /** Admission-control policy (service::ShedRegistry key:
     *  "shed-none", "shed-tail", "shed-priority").
     *  @throws std::out_of_range when the key is not registered. */
    SimulationBuilder &serviceShedPolicy(std::string registry_key);
    /** Backlog bound the shed policy trips at (0 = derive from the SLO
     *  target and offered rate). */
    SimulationBuilder &serviceShedLimit(std::uint64_t limit);

    // --- Fault injection (fault::FaultPlane / fault::FaultyBackend) --
    /**
     * Comma-separated fault::FaultRegistry keys to inject ("bitflip",
     * "weak-cell", "stuck-row", "outage"); empty disables injection.
     * @throws std::out_of_range when any key is not registered.
     */
    SimulationBuilder &faultModels(const std::string &models_csv);
    /** Seed of the fault plane (independent of the master seed). */
    SimulationBuilder &faultSeed(std::uint64_t s);
    /** Expected silently-flipped bits per 256-bit round ("bitflip"). */
    SimulationBuilder &faultBitflipRate(double rate);
    /** RNG cell pool per channel / weak and stuck population sizes. */
    SimulationBuilder &faultCells(unsigned cells_per_channel);
    SimulationBuilder &faultWeakCells(unsigned cells);
    SimulationBuilder &faultWeakSeverity(unsigned severity);
    /** Uses per severity step a weak cell drifts by (0 = no drift). */
    SimulationBuilder &faultDriftInterval(std::uint64_t uses);
    SimulationBuilder &faultStuckRows(unsigned rows);
    /** Screened spare cells per channel for blacklist remapping. */
    SimulationBuilder &faultSpares(unsigned cells);
    /** Health monitor on/off and its escalation bounds. */
    SimulationBuilder &faultMonitor(bool on);
    SimulationBuilder &faultBlacklistThreshold(unsigned failures);
    SimulationBuilder &faultRetryLimit(unsigned rounds);
    /** Periodic rank/channel outage windows ("outage" model). */
    SimulationBuilder &faultOutagePeriod(Cycle cycles);
    SimulationBuilder &faultOutageDuration(Cycle cycles);
    /** Outage blast radius: "channel" or "rank".
     *  @throws std::out_of_range on any other value. */
    SimulationBuilder &faultOutageScope(std::string scope);

    // --- Execution environment ---------------------------------------
    /**
     * Persistent alone-run cache directory for the built Runner /
     * SweepRunner (see sim::ResultStore): baselines are read from and
     * written back to @p dir, shared safely between concurrent
     * processes. An empty string disables persistence. When this
     * setter is never called, the built products fall back to the
     * DS_CACHE_DIR environment variable (unset = no persistence).
     */
    SimulationBuilder &cacheDir(std::string dir);

    // --- Text form ---------------------------------------------------
    /** Apply key=value tokens on top of the current state.
     *  @throws std::invalid_argument on malformed text. */
    SimulationBuilder &applyText(const std::string &text);
    /** Canonical key=value serialization of the current state. */
    std::string toText() const;

    // --- Products ----------------------------------------------------
    /** The built configuration (valid to copy and use directly). */
    const SimConfig &config() const { return cfg; }
    /** The memory-controller slice of the configuration. */
    mem::McConfig mcConfig() const { return mcConfigFor(cfg); }
    /** Experiment runner over this configuration (honors cacheDir()). */
    Runner buildRunner() const;
    /** One simulated system over explicit per-core traces. */
    System buildSystem(
        std::vector<std::unique_ptr<cpu::TraceSource>> traces) const
    {
        return System(cfg, std::move(traces));
    }

    /** Parallel sweep executor over this configuration (jobs == 0
     *  selects DS_JOBS / hardware_concurrency; honors cacheDir()). */
    SweepRunner buildSweepRunner(unsigned jobs = 0) const;

    /**
     * One SweepRunner grid cell that runs @p spec under exactly this
     * builder's configuration — the way to put arbitrary knob
     * combinations (hybrid mechanisms, power-down thresholds, custom
     * schedulers) next to design-key cells in one parallel grid.
     */
    SweepRunner::Cell buildSweepCell(workloads::WorkloadSpec spec) const
    {
        SweepRunner::Cell cell;
        cell.config = cfg;
        cell.spec = std::move(spec);
        return cell;
    }

  private:
    std::shared_ptr<ResultStore> makeStore() const;

    SimConfig cfg;
    /** nullopt = DS_CACHE_DIR default; "" = persistence disabled. */
    std::optional<std::string> cacheDirOverride;
};

} // namespace dstrange::sim

#endif // DSTRANGE_API_SIMULATION_BUILDER_H
