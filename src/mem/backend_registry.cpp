#include "mem/backend_registry.h"

#include "dram/dram_channel.h"
#include "mem/fixed_latency_backend.h"
#include "mem/memory_controller.h"

namespace dstrange::mem {

BackendRegistry::BackendRegistry() : Registry("backend")
{
    add("ddr4", [](const BackendContext &ctx) {
        return std::make_unique<dram::DramChannel>(ctx.timings,
                                                   ctx.geometry);
    });
    add("fixed-latency", [](const BackendContext &ctx) {
        return std::make_unique<FixedLatencyBackend>(
            ctx.geometry, ctx.cfg.backendReadLatency,
            ctx.cfg.backendWriteLatency, ctx.cfg.backendGap);
    });
}

BackendRegistry &
BackendRegistry::instance()
{
    static BackendRegistry registry;
    return registry;
}

} // namespace dstrange::mem
