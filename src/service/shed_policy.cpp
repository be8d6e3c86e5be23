#include "service/shed_policy.h"

#include "common/rng.h"

namespace dstrange::service {

namespace {

constexpr std::uint64_t kClassSalt = 0x7b6f3e1d5ca94281ULL;

class ShedNone final : public ShedPolicy
{
  public:
    const std::string &
    name() const override
    {
        static const std::string n = "shed-none";
        return n;
    }

    bool
    admit(std::uint64_t, std::size_t) override
    {
        return true;
    }
};

/** Drop new arrivals while the backlog sits at the limit: the classic
 *  bounded-queue admission control, shedding exactly the requests that
 *  would have waited longest. */
class ShedTail final : public ShedPolicy
{
  public:
    explicit ShedTail(const ShedContext &ctx) : limit(ctx.limit) {}

    const std::string &
    name() const override
    {
        static const std::string n = "shed-tail";
        return n;
    }

    bool
    admit(std::uint64_t, std::size_t backlog) override
    {
        return backlog < limit;
    }

  private:
    std::uint64_t limit;
};

/** Hash each arrival into four priority classes (0 = highest). The low
 *  two classes shed at half the limit, everything at the limit, so
 *  high-priority traffic keeps its latency budget deep into overload. */
class ShedPriority final : public ShedPolicy
{
  public:
    explicit ShedPriority(const ShedContext &ctx)
        : seed(ctx.seed), limit(ctx.limit)
    {
    }

    const std::string &
    name() const override
    {
        static const std::string n = "shed-priority";
        return n;
    }

    bool
    admit(std::uint64_t arrival_index, std::size_t backlog) override
    {
        if (backlog >= limit)
            return false;
        if (2 * backlog >= limit) {
            const std::uint64_t cls =
                mix64(seed ^ kClassSalt ^ arrival_index) & 3;
            return cls < 2;
        }
        return true;
    }

  private:
    std::uint64_t seed;
    std::uint64_t limit;
};

} // namespace

ShedRegistry::ShedRegistry() : Registry("shed policy")
{
    add("shed-none", [](const ShedContext &) {
        return std::make_unique<ShedNone>();
    });
    add("shed-tail", [](const ShedContext &ctx) {
        return std::make_unique<ShedTail>(ctx);
    });
    add("shed-priority", [](const ShedContext &ctx) {
        return std::make_unique<ShedPriority>(ctx);
    });
}

ShedRegistry &
ShedRegistry::instance()
{
    static ShedRegistry registry;
    return registry;
}

} // namespace dstrange::service
