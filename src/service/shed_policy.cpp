#include "service/shed_policy.h"

#include "common/rng.h"

namespace dstrange::service {

namespace {

constexpr std::uint64_t kClassSalt = 0x7b6f3e1d5ca94281ULL;

} // namespace

ShedPolicy::ShedPolicy(const std::string &key, const ShedContext &ctx)
    : kind(static_cast<Kind>(keyIndex("shed policy", kShedPolicies, key))),
      seed(ctx.seed), limit(ctx.limit)
{
}

bool
ShedPolicy::admit(std::uint64_t arrival_index, std::size_t backlog) const
{
    switch (kind) {
      case Kind::None:
        return true;
      case Kind::Priority:
        // Hash each arrival into four priority classes (0 = highest).
        // The low two classes shed at half the limit, everything at
        // the limit, so high-priority traffic keeps its latency budget
        // deep into overload.
        if (backlog >= limit)
            return false;
        if (2 * backlog >= limit)
            return (mix64(seed ^ kClassSalt ^ arrival_index) & 3) < 2;
        return true;
      case Kind::Tail:
        // The classic bounded-queue admission control: shed exactly
        // the requests that would have waited longest.
        return backlog < limit;
    }
    return true;
}

} // namespace dstrange::service
