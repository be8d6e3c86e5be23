#include "sim/design_registry.h"

#include <mutex>
#include <stdexcept>

#include "common/registry_key.h"

namespace dstrange::sim {

DesignRegistry::DesignRegistry()
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
    validateRegistryKey("design", key);
    if (!preset)
        throw std::invalid_argument("design preset for '" + key +
                                    "' must not be empty");
    std::unique_lock<std::shared_mutex> lock(mu);
    if (!entries
             .emplace(key, Entry{display_name.empty() ? key : display_name,
                                 std::move(preset)})
             .second)
        throw std::invalid_argument("design '" + key +
                                    "' is already registered");
}

DesignRegistry::Entry
DesignRegistry::at(const std::string &name) const
{
    // Returns a copy so the preset runs lock-free (a preset that
    // registers another design from inside would otherwise deadlock).
    std::shared_lock<std::shared_mutex> lock(mu);
    auto it = entries.find(name);
    if (it == entries.end()) {
        // Fall back to display names ("DR-STRANGE" for "drstrange").
        for (auto e = entries.begin(); e != entries.end(); ++e) {
            if (e->second.displayName == name)
                return e->second;
        }
        std::string known;
        for (const auto &[k, e] : entries)
            known += (known.empty() ? "" : ", ") + k;
        throw std::out_of_range("unknown design '" + name +
                                "' (registered: " + known + ")");
    }
    return it->second;
}

void
DesignRegistry::apply(const std::string &name, SimConfig &cfg) const
{
    at(name).preset(cfg);
}

bool
DesignRegistry::contains(const std::string &name) const
{
    std::shared_lock<std::shared_mutex> lock(mu);
    if (entries.count(name) != 0)
        return true;
    for (const auto &[key, entry] : entries)
        if (entry.displayName == name)
            return true;
    return false;
}

std::string
DesignRegistry::displayName(const std::string &name) const
{
    return at(name).displayName;
}

std::vector<std::string>
DesignRegistry::keys() const
{
    std::shared_lock<std::shared_mutex> lock(mu);
    std::vector<std::string> out;
    for (const auto &[key, entry] : entries)
        out.push_back(key);
    return out;
}

} // namespace dstrange::sim
