#include "api/simulation_builder.h"

#include "sim/config_text.h"
#include "sim/design_registry.h"

namespace dstrange::sim {

SimulationBuilder
SimulationBuilder::fromText(const std::string &text)
{
    return SimulationBuilder().applyText(text);
}

SimulationBuilder &
SimulationBuilder::design(const std::string &name)
{
    DesignRegistry::instance().apply(name, cfg);
    return *this;
}

SimulationBuilder &
SimulationBuilder::applyText(const std::string &text)
{
    applyConfigText(cfg, text);
    return *this;
}

std::string
SimulationBuilder::toText() const
{
    return serializeConfig(cfg);
}

} // namespace dstrange::sim
