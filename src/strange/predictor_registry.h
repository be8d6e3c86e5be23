/**
 * @file
 * String-keyed factory registry for DRAM idleness predictors. The memory
 * controller instantiates one predictor per channel through this
 * registry, so a new prediction policy plugs into every DR-STRaNGe
 * configuration — sweeps, CLI, benches — by registering a factory from
 * any linked code, without editing src/strange.
 *
 * Each entry may also supply a storage-cost model so the area model
 * (sim/area_model.h) can price custom predictors without a switch.
 */

#ifndef DSTRANGE_STRANGE_PREDICTOR_REGISTRY_H
#define DSTRANGE_STRANGE_PREDICTOR_REGISTRY_H

#include <functional>
#include <memory>
#include <string>

#include "common/registry.h"
#include "strange/idleness_predictor.h"
#include "strange/rl_predictor.h"

namespace dstrange::strange {

/** Everything a predictor factory may need at construction time. */
struct PredictorContext
{
    unsigned channel = 0; ///< Channel index (for per-channel seeds).
    unsigned tableEntries = 256;
    Cycle periodThreshold = 40;
    RlIdlenessPredictor::Config rlConfig{};
};

/**
 * Factory producing one channel's predictor. Returning nullptr is legal
 * and means "no predictor": the controller treats every quiet period as
 * long (the paper's simple-buffering configuration).
 */
using PredictorFactory =
    std::function<std::unique_ptr<IdlenessPredictor>(
        const PredictorContext &)>;

/** Storage cost of one controller's worth of predictor state, in bits. */
struct PredictorAreaContext
{
    unsigned channels = 1;
    unsigned tableEntries = 256;
    RlIdlenessPredictor::Config rlConfig{};
};

using PredictorAreaModel =
    std::function<double(const PredictorAreaContext &)>;

/** A predictor factory and its optional storage-cost model. */
struct PredictorEntry
{
    PredictorFactory factory;
    PredictorAreaModel area;

    explicit operator bool() const { return static_cast<bool>(factory); }
};

/**
 * Process-global predictor registry (the contract is in
 * common/registry.h). Built-in policies are registered on first access:
 *
 *   "none"    no predictor — every quiet period is assumed long
 *   "simple"  2-bit saturating counter table (Section 5.1.2)
 *   "rl"      Q-learning agent (Section 5.1.2)
 */
class PredictorRegistry : public Registry<PredictorEntry>
{
  public:
    static PredictorRegistry &instance();

    /**
     * Register a factory (and optional storage model) under @p key.
     * @throws std::invalid_argument on a bad or taken key or an empty
     *         factory.
     */
    void add(const std::string &key, PredictorFactory factory,
             PredictorAreaModel area = nullptr);

    /**
     * Instantiate the predictor registered under @p key (may be null —
     * see PredictorFactory).
     * @throws std::out_of_range if @p key is unknown.
     */
    std::unique_ptr<IdlenessPredictor>
    make(const std::string &key, const PredictorContext &ctx) const;

    /**
     * Predictor storage in bits for the area model; 0 when the entry
     * registered no storage model.
     * @throws std::out_of_range if @p key is unknown.
     */
    double storageBits(const std::string &key,
                       const PredictorAreaContext &ctx) const;

  private:
    PredictorRegistry();
};

} // namespace dstrange::strange

#endif // DSTRANGE_STRANGE_PREDICTOR_REGISTRY_H
