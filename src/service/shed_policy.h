/**
 * @file
 * Admission-control / load-shedding policies at the service boundary.
 * A ShedPolicy decides, per generated arrival, whether the request is
 * admitted to the backlog or shed immediately; shedding under fault
 * pressure trades completed volume for tail latency, keeping goodput
 * (within-SLO completions) from collapsing when the machine loses RNG
 * throughput to discarded rounds or outages. Policies live behind the
 * string-keyed ShedRegistry so new strategies plug into config text
 * (`service.shed=`), the CLI, sweeps, and cache keys without touching
 * service code. Decisions are pure functions of (seed, arrival index,
 * backlog depth) — deterministic and fast-forward safe.
 */

#ifndef DSTRANGE_SERVICE_SHED_POLICY_H
#define DSTRANGE_SERVICE_SHED_POLICY_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/registry.h"

namespace dstrange::service {

/** Everything a shed-policy factory needs at construction time. */
struct ShedContext
{
    std::uint64_t seed = 0;  ///< Derived from the service seed.
    std::uint64_t limit = 0; ///< Backlog bound (resolved, nonzero).
};

/** One admission decision per generated arrival. */
class ShedPolicy
{
  public:
    virtual ~ShedPolicy() = default;

    virtual const std::string &name() const = 0;

    /**
     * Admit the @p arrival_index-th generated request given the current
     * @p backlog depth? Must be deterministic in its arguments and any
     * seeded construction state.
     */
    virtual bool admit(std::uint64_t arrival_index,
                       std::size_t backlog) = 0;
};

/** Factory producing one configured shed policy. */
using ShedPolicyFactory =
    std::function<std::unique_ptr<ShedPolicy>(const ShedContext &)>;

/**
 * Process-global shed-policy registry (the contract is in
 * common/registry.h). Built-in policies are registered on first access:
 *
 *   "shed-none"      admit everything (the default; bit-identical to
 *                    the pre-shedding service layer)
 *   "shed-tail"      drop arrivals while the backlog is at the limit
 *   "shed-priority"  hash arrivals into four priority classes; drop
 *                    the two low classes at half the limit, everything
 *                    at the limit
 *
 * make(key, ctx) instantiates one configured policy.
 */
class ShedRegistry : public Registry<ShedPolicyFactory>
{
  public:
    static ShedRegistry &instance();

  private:
    ShedRegistry();
};

} // namespace dstrange::service

#endif // DSTRANGE_SERVICE_SHED_POLICY_H
