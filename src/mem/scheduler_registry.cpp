#include "mem/scheduler_registry.h"

#include "mem/bliss.h"
#include "mem/fr_fcfs.h"
#include "mem/memory_controller.h"

namespace dstrange::mem {

SchedulerRegistry::SchedulerRegistry() : Registry("scheduler")
{
    add("fr-fcfs", [](const SchedulerContext &ctx) {
        return std::make_unique<FrFcfsScheduler>(
            ctx.channels, ctx.banksPerChannel, /*column_cap=*/0);
    });
    add("fr-fcfs-cap", [](const SchedulerContext &ctx) {
        return std::make_unique<FrFcfsScheduler>(
            ctx.channels, ctx.banksPerChannel, kColumnCap);
    });
    add("bliss", [](const SchedulerContext &ctx) {
        return std::make_unique<BlissScheduler>(
            ctx.channels, ctx.cores, kBlissThreshold,
            kBlissClearingInterval);
    });
}

SchedulerRegistry &
SchedulerRegistry::instance()
{
    static SchedulerRegistry registry;
    return registry;
}

} // namespace dstrange::mem
