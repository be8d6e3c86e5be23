#include "sim/design_registry.h"

namespace dstrange::sim {

DesignRegistry::DesignRegistry() : Registry("design")
{
    for (const DesignPreset &row : kPaperDesigns) {
        add(row.key, row.displayName, [row](SimConfig &cfg) {
            cfg.scheduler = row.scheduler;
            cfg.rngAwareQueueing = row.rngAwareQueueing;
            cfg.buffering = row.buffering;
            cfg.fillPolicy = row.fillPolicy;
            cfg.predictor = row.predictor;
            cfg.lowUtilFill = row.lowUtilFill;
        });
    }
}

DesignRegistry &
DesignRegistry::instance()
{
    static DesignRegistry registry;
    return registry;
}

void
DesignRegistry::add(const std::string &key,
                    const std::string &display_name, Preset preset)
{
    Registry::add(key, {display_name.empty() ? key : display_name,
                        std::move(preset)});
}

DesignEntry
DesignRegistry::at(const std::string &name) const
{
    // Unknown keys fall back to display names ("DR-STRANGE").
    return Registry::at(name, [&name](const DesignEntry &e) {
        return e.displayName == name;
    });
}

void
DesignRegistry::apply(const std::string &name, SimConfig &cfg) const
{
    at(name).preset(cfg);
}

bool
DesignRegistry::contains(const std::string &name) const
{
    return Registry::contains(name, [&name](const DesignEntry &e) {
        return e.displayName == name;
    });
}

std::string
DesignRegistry::displayName(const std::string &name) const
{
    return at(name).displayName;
}

} // namespace dstrange::sim
