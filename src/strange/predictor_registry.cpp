#include "strange/predictor_registry.h"

#include "strange/simple_predictor.h"

namespace dstrange::strange {

PredictorRegistry::PredictorRegistry() : Registry("predictor")
{
    add("none",
        [](const PredictorContext &) {
            return std::unique_ptr<IdlenessPredictor>();
        },
        [](const PredictorAreaContext &) { return 0.0; });

    add("simple",
        [](const PredictorContext &ctx)
            -> std::unique_ptr<IdlenessPredictor> {
            SimpleIdlenessPredictor::Config pc;
            pc.tableEntries = ctx.tableEntries;
            pc.periodThreshold = ctx.periodThreshold;
            return std::make_unique<SimpleIdlenessPredictor>(pc);
        },
        [](const PredictorAreaContext &ctx) {
            // 2-bit counters per entry, one table per channel, plus the
            // last-address register and idle-length counter per channel.
            return static_cast<double>(ctx.tableEntries) * 2.0 *
                       ctx.channels +
                   ctx.channels * (48.0 + 16.0);
        });

    add("rl",
        [](const PredictorContext &ctx)
            -> std::unique_ptr<IdlenessPredictor> {
            RlIdlenessPredictor::Config pc = ctx.rlConfig;
            pc.periodThreshold = ctx.periodThreshold;
            pc.seed += ctx.channel; // Independent exploration per channel.
            return std::make_unique<RlIdlenessPredictor>(pc);
        },
        [](const PredictorAreaContext &ctx) {
            // Q table: 2 actions x 2^stateBits states x 4-byte Q values,
            // plus the 10-bit history register per channel.
            return 2.0 *
                       static_cast<double>(1u << ctx.rlConfig.stateBits) *
                       32.0 +
                   ctx.channels * 10.0;
        });
}

PredictorRegistry &
PredictorRegistry::instance()
{
    static PredictorRegistry registry;
    return registry;
}

void
PredictorRegistry::add(const std::string &key, PredictorFactory factory,
                       PredictorAreaModel area)
{
    Registry::add(key, {std::move(factory), std::move(area)});
}

std::unique_ptr<IdlenessPredictor>
PredictorRegistry::make(const std::string &key,
                        const PredictorContext &ctx) const
{
    return at(key).factory(ctx);
}

double
PredictorRegistry::storageBits(const std::string &key,
                               const PredictorAreaContext &ctx) const
{
    const PredictorEntry entry = at(key);
    return entry.area ? entry.area(ctx) : 0.0;
}

} // namespace dstrange::strange
