/**
 * @file
 * String-keyed registry of composable fault models. A fault model is a
 * *pure* corruption of the 256-bit raw audit block a TRNG round exposes
 * to the health monitor: given the same RoundContext it must produce
 * the same corruption, because the fast-forward engine re-evaluates
 * rounds it skipped and the result has to match the tick path bit for
 * bit. Models listed in FaultConfig::models compose in list order.
 */

#ifndef DSTRANGE_FAULT_FAULT_REGISTRY_H
#define DSTRANGE_FAULT_FAULT_REGISTRY_H

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/registry.h"
#include "fault/fault_config.h"

namespace dstrange::fault {

/** Health classification assigned to a cell at plane construction. */
enum class CellClass : std::uint8_t
{
    Healthy = 0,
    Weak = 1,  ///< Biased ones-density, optionally drifting worse.
    Stuck = 2, ///< Row stuck at all-zeros or all-ones.
};

/**
 * Everything a fault model may consult for one round. Values only — a
 * model must stay a pure function of this context (no internal state),
 * which is what makes skipped-span replay deterministic.
 */
struct RoundContext
{
    std::uint64_t seed = 0;  ///< FaultConfig::seed.
    unsigned channel = 0;
    std::uint32_t cell = 0;  ///< Cell id within the channel's pool.
    std::uint64_t use = 0;   ///< Per-cell use count before this round.
    CellClass cls = CellClass::Healthy;
    unsigned severity = 0;   ///< Effective weak bias exponent k.
};

/** A TRNG round's raw audit block: 256 bits read back for testing. */
using AuditBlock = std::array<std::uint8_t, 32>;

/** The deterministic healthy block for a round (before corruption). */
AuditBlock healthyBlock(const RoundContext &ctx);

/**
 * One composable corruption of a round's audit block.
 *
 * @return the number of bits flipped relative to the input block that
 *         would survive into delivered output if the round's audit
 *         passes (silent corruption accounting); class-level
 *         corruptions (stuck/weak) that the audit is expected to catch
 *         return 0.
 */
class FaultModel
{
  public:
    virtual ~FaultModel() = default;

    virtual const std::string &name() const = 0;

    virtual std::uint64_t corrupt(AuditBlock &block,
                                  const RoundContext &ctx) const = 0;
};

/** Factory producing one configured fault model. */
using FaultModelFactory =
    std::function<std::unique_ptr<FaultModel>(const FaultConfig &)>;

/**
 * Process-global fault-model registry (the contract is in
 * common/registry.h). Built-in models are registered on first access:
 *
 *   "bitflip"    transient bit flips in otherwise healthy blocks —
 *                rarely fails the audit, so flipped bits are *silent*
 *                corruption delivered downstream
 *   "weak-cell"  ones-biased cells with optional severity drift; the
 *                audit catches them with probability rising in bias
 *   "stuck-row"  all-zeros/all-ones rows; the audit always catches them
 *   "outage"     timed rank/channel unavailability windows (applied by
 *                each dram::DramChannel as a blackout, not to blocks;
 *                see fault::outageWindow in fault_plane.h)
 *
 * make(key, cfg) instantiates one configured model.
 */
class FaultRegistry : public Registry<FaultModelFactory>
{
  public:
    static FaultRegistry &instance();

    /**
     * Register a factory under @p key. Keys also travel inside the
     * comma-joined FaultConfig::models value, so on top of the common
     * key rules a key may not contain a comma.
     * @throws std::invalid_argument on a bad or taken key or an empty
     *         factory.
     */
    void add(const std::string &key, FaultModelFactory factory);

  private:
    FaultRegistry();
};

/**
 * Split FaultConfig::models on commas and instantiate each key.
 * @throws std::out_of_range for unknown keys.
 */
std::vector<std::unique_ptr<FaultModel>>
makeModels(const FaultConfig &cfg);

} // namespace dstrange::fault

#endif // DSTRANGE_FAULT_FAULT_REGISTRY_H
