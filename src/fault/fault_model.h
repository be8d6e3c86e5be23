/**
 * @file
 * The composable fault models. A fault model is a *pure* corruption of
 * the 256-bit raw audit block a TRNG round exposes to the health
 * monitor: given the same RoundContext it must produce
 * the same corruption, because the fast-forward engine re-evaluates
 * rounds it skipped and the result has to match the tick path bit for
 * bit. Models listed in FaultConfig::models compose in list order.
 */

#ifndef DSTRANGE_FAULT_FAULT_MODEL_H
#define DSTRANGE_FAULT_FAULT_MODEL_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/key_list.h"
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
 * The fault models fault.models lists, in sorted order:
 *
 *   "bitflip"    transient bit flips in otherwise healthy blocks —
 *                rarely fails the audit, so flipped bits are *silent*
 *                corruption delivered downstream
 *   "outage"     timed rank/channel unavailability windows (applied by
 *                each dram::DramChannel as a blackout, not to blocks;
 *                see fault::outageWindow in fault_plane.h)
 *   "stuck-row"  all-zeros/all-ones rows; the audit always catches them
 *   "weak-cell"  ones-biased cells with optional severity drift; the
 *                audit catches them with probability rising in bias
 */
inline constexpr std::array<const char *, 4> kFaultModels{
    "bitflip", "outage", "stuck-row", "weak-cell"};
static_assert(sortedKeys(kFaultModels));

/** One fault model, in kFaultModels order. */
enum class FaultKind : std::uint8_t
{
    Bitflip,
    Outage,
    StuckRow,
    WeakCell,
};

/**
 * The models the comma-joined @p models lists, in list order with
 * duplicates kept (models compose in that order); empty items are
 * skipped.
 * @throws std::out_of_range "unknown fault model '<key>' (registered:
 *         ...)" for a key kFaultModels does not list.
 */
std::vector<FaultKind> parseFaultModels(const std::string &models);

/**
 * Apply @p kind's corruption to @p block.
 *
 * @return the number of bits flipped relative to the input block that
 *         would survive into delivered output if the round's audit
 *         passes (silent corruption accounting); class-level
 *         corruptions (stuck/weak) that the audit is expected to catch
 *         return 0, and so does "outage", which leaves blocks alone.
 */
std::uint64_t corrupt(FaultKind kind, const FaultConfig &cfg,
                      AuditBlock &block, const RoundContext &ctx);

} // namespace dstrange::fault

#endif // DSTRANGE_FAULT_FAULT_MODEL_H
