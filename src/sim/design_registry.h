/**
 * @file
 * String-keyed registry of named system designs (presets over the
 * SimConfig policy knobs). The paper's nine designs are built in from
 * the kPaperDesigns table; user code can register additional presets —
 * typically pairing a custom scheduler or predictor factory with the
 * policy knobs that select it — and they become reachable from the
 * CLI's --design flag, config text (design=KEY), and Runner::run(name)
 * without any library edits.
 */

#ifndef DSTRANGE_SIM_DESIGN_REGISTRY_H
#define DSTRANGE_SIM_DESIGN_REGISTRY_H

#include <array>
#include <functional>
#include <string>

#include "common/registry.h"
#include "sim/sim_config.h"

namespace dstrange::sim {

/**
 * One paper design: its registry key, the display name shown in
 * tables, and the value of every SimConfig policy knob. Applying a row
 * sets all six knobs, so reapplying a preset from any prior state is
 * deterministic; numeric parameters are left untouched.
 */
struct DesignPreset
{
    const char *key;
    const char *displayName;
    const char *scheduler;
    bool rngAwareQueueing;
    bool buffering;
    const char *fillPolicy;
    const char *predictor;
    bool lowUtilFill;
};

/** The paper's nine evaluated designs, in sweep order. */
inline constexpr std::array<DesignPreset, 9> kPaperDesigns = {{
    // Baseline: FR-FCFS+Cap16, on-demand all-channel RNG.
    {"oblivious", "RNG-Oblivious", "fr-fcfs-cap", false, false, "none",
     "simple", false},
    // Oracle zero-overhead buffer fill + RNG-aware queue.
    {"greedy", "Greedy", "fr-fcfs-cap", true, true, "greedy-oracle",
     "simple", false},
    // Full design: simple predictor, low-utilization fill.
    {"drstrange", "DR-STRANGE", "fr-fcfs-cap", true, true, "engine",
     "simple", true},
    // Simple buffering (every quiet period assumed long).
    {"drstrange-nopred", "DR-STRANGE(NoPred)", "fr-fcfs-cap", true, true,
     "engine", "none", false},
    // Q-learning idleness predictor.
    {"drstrange-rl", "DR-STRANGE+RL", "fr-fcfs-cap", true, true, "engine",
     "rl", true},
    // Simple predictor, low-utilization fill disabled.
    {"drstrange-nolowutil", "DR-STRANGE(Thr=0)", "fr-fcfs-cap", true,
     true, "engine", "simple", false},
    // RNG-aware scheduler only (Fig. 11 ablation).
    {"rng-aware", "RNG-Aware", "fr-fcfs-cap", true, false, "none",
     "simple", false},
    // RNG-oblivious with classic (uncapped) FR-FCFS.
    {"frfcfs", "FR-FCFS", "fr-fcfs", false, false, "none", "simple",
     false},
    // RNG-oblivious with the BLISS scheduler.
    {"bliss", "BLISS", "bliss", false, false, "none", "simple", false},
}};

/** A registered design: its display name and the preset it applies. */
struct DesignEntry
{
    std::string displayName;
    std::function<void(SimConfig &)> preset;

    explicit operator bool() const { return static_cast<bool>(preset); }
};

/**
 * Process-global design-preset registry (the contract is in
 * common/registry.h). The built-in keys are the kPaperDesigns keys
 * ("oblivious", "greedy", "drstrange", ...); lookups also accept
 * display names ("DR-STRANGE").
 */
class DesignRegistry : public Registry<DesignEntry>
{
  public:
    /** Applies a preset's policy knobs onto a configuration. */
    using Preset = std::function<void(SimConfig &)>;

    static DesignRegistry &instance();

    /**
     * Register a preset under @p key with a human-readable
     * @p display_name (shown in tables; empty means the key).
     * @throws std::invalid_argument on a bad or taken key or an empty
     *         preset.
     */
    void add(const std::string &key, const std::string &display_name,
             Preset preset);

    /**
     * Apply the preset registered under @p name (key or display name)
     * onto @p cfg.
     * @throws std::out_of_range if @p name is unknown (the message
     *         lists the registered keys).
     */
    void apply(const std::string &name, SimConfig &cfg) const;

    bool contains(const std::string &name) const;

    /** Display name of a registered design. @throws std::out_of_range */
    std::string displayName(const std::string &name) const;

  private:
    DesignRegistry();
    DesignEntry at(const std::string &name) const;
};

} // namespace dstrange::sim

#endif // DSTRANGE_SIM_DESIGN_REGISTRY_H
