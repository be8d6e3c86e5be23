/**
 * @file
 * Admission-control / load-shedding policies at the service boundary.
 * A ShedPolicy decides, per generated arrival, whether the request is
 * admitted to the backlog or shed immediately; shedding under fault
 * pressure trades completed volume for tail latency, keeping goodput
 * (within-SLO completions) from collapsing when the machine loses RNG
 * throughput to discarded rounds or outages. Decisions are pure
 * functions of (seed, arrival index, backlog depth) — deterministic and
 * fast-forward safe.
 */

#ifndef DSTRANGE_SERVICE_SHED_POLICY_H
#define DSTRANGE_SERVICE_SHED_POLICY_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/key_list.h"

namespace dstrange::service {

/**
 * The policies service.shed selects, in sorted order:
 *
 *   "shed-none"      admit everything (the default; bit-identical to
 *                    the pre-shedding service layer)
 *   "shed-priority"  hash arrivals into four priority classes; drop
 *                    the two low classes at half the limit, everything
 *                    at the limit
 *   "shed-tail"      drop arrivals while the backlog is at the limit
 */
inline constexpr std::array<const char *, 3> kShedPolicies{
    "shed-none", "shed-priority", "shed-tail"};
static_assert(sortedKeys(kShedPolicies));

/**
 * @throws std::out_of_range "unknown shed policy '<key>' (registered:
 *         ...)" unless kShedPolicies lists @p key.
 */
inline void
requireShedPolicy(const std::string &key)
{
    keyIndex("shed policy", kShedPolicies, key);
}

/** Everything a shed policy needs at construction time. */
struct ShedContext
{
    std::uint64_t seed = 0;  ///< Derived from the service seed.
    std::uint64_t limit = 0; ///< Backlog bound (resolved, nonzero).
};

/** One admission decision per generated arrival. */
class ShedPolicy
{
  public:
    /** @throws std::out_of_range unless kShedPolicies lists @p key. */
    ShedPolicy(const std::string &key, const ShedContext &ctx);

    /**
     * Admit the @p arrival_index-th generated request given the current
     * @p backlog depth?
     */
    bool admit(std::uint64_t arrival_index, std::size_t backlog) const;

  private:
    /** In kShedPolicies order. */
    enum class Kind : std::uint8_t
    {
        None,
        Priority,
        Tail,
    };

    Kind kind;
    std::uint64_t seed;
    std::uint64_t limit;
};

} // namespace dstrange::service

#endif // DSTRANGE_SERVICE_SHED_POLICY_H
