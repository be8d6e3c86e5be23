/**
 * @file
 * Thin facade over SimConfig: select a named design preset (built-in
 * or registered in sim::DesignRegistry), apply canonical key=value
 * config text (sim/config_text.h) — the one parser and validator of
 * every knob — and produce System, Runner or SweepRunner instances.
 * Programmatic code that wants a single knob assigns the SimConfig
 * field directly.
 *
 *   auto runner = sim::SimulationBuilder()
 *                     .design("drstrange")
 *                     .applyText("mechanism=quac buffer-entries=32")
 *                     .buildRunner();
 */

#ifndef DSTRANGE_API_SIMULATION_BUILDER_H
#define DSTRANGE_API_SIMULATION_BUILDER_H

#include <memory>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "sim/sim_config.h"
#include "sim/sweep_runner.h"
#include "sim/system.h"

namespace dstrange::sim {

/**
 * Chainable holder of one SimConfig: design presets and config text
 * go in, the simulation products (System, Runner, SweepRunner, grid
 * cells) come out.
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

    /**
     * Reset the policy knobs to a design registered in
     * sim::DesignRegistry (key or display name; covers the paper's
     * kPaperDesigns and user-registered designs).
     * @throws std::out_of_range when unknown.
     */
    SimulationBuilder &design(const std::string &name);

    /** Apply key=value tokens on top of the current state.
     *  @throws std::invalid_argument on malformed text. */
    SimulationBuilder &applyText(const std::string &text);
    /** Canonical key=value serialization of the current state. */
    std::string toText() const;

    /** The built configuration (valid to copy and use directly). */
    const SimConfig &config() const { return cfg; }

    /** Experiment runner over this configuration (its alone-run
     *  cache persists under DS_CACHE_DIR when set). */
    Runner buildRunner() const { return Runner(cfg); }

    /** One simulated system over explicit per-core traces. */
    System buildSystem(
        std::vector<std::unique_ptr<cpu::TraceSource>> traces) const
    {
        return System(cfg, std::move(traces));
    }

    /** Parallel sweep executor over this configuration (jobs == 0
     *  selects DS_JOBS / hardware_concurrency). */
    SweepRunner buildSweepRunner(unsigned jobs = 0) const
    {
        return SweepRunner(cfg, jobs);
    }

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
    SimConfig cfg;
};

} // namespace dstrange::sim

#endif // DSTRANGE_API_SIMULATION_BUILDER_H
