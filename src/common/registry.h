/**
 * @file
 * The string-keyed, thread-safe table behind the two policy axes that
 * linked code extends: schedulers and design presets. Each of those
 * registries derives from Registry<Entry>, registers its built-ins in
 * its constructor, and adds only what is specific to it. The closed
 * axes are fixed key lists (common/key_list.h).
 *
 * The contract, owned here once:
 *  - Keys travel through the whitespace-tokenized key=value config text
 *    (sim/config_text.h), so they must be non-empty, single-token and
 *    '='-free. Empty entries and duplicate keys are rejected too; all
 *    three throw std::invalid_argument.
 *  - An unknown key throws std::out_of_range
 *    "unknown <what> '<key>' (registered: a, b, ...)".
 *  - Lookups copy the entry out under a shared lock and release it, so
 *    a factory runs lock-free and may itself register another key.
 *  - keys() lists the registered keys in sorted order.
 */

#ifndef DSTRANGE_COMMON_REGISTRY_H
#define DSTRANGE_COMMON_REGISTRY_H

#include <cctype>
#include <map>
#include <mutex>
#include <ranges>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/key_list.h"

namespace dstrange {

/**
 * @tparam Entry a copyable value that is contextually convertible to
 *         bool (false = empty), typically a std::function factory.
 */
template <typename Entry>
class Registry
{
  public:
    /**
     * Register @p entry under @p key.
     * @throws std::invalid_argument if @p key is empty, contains
     *         whitespace or '=', or is already taken, or if @p entry is
     *         empty.
     */
    void
    add(const std::string &key, Entry entry)
    {
        if (key.empty())
            throw std::invalid_argument(what + " key must not be empty");
        for (char c : key) {
            if (c == '=' || std::isspace(static_cast<unsigned char>(c)))
                throw std::invalid_argument(
                    what + " key '" + key +
                    "' must not contain whitespace or '='");
        }
        if (!entry)
            throw std::invalid_argument(what + " entry for '" + key +
                                        "' must not be empty");
        std::unique_lock<std::shared_mutex> lock(mu);
        if (!entries.emplace(key, std::move(entry)).second)
            throw std::invalid_argument(what + " '" + key +
                                        "' is already registered");
    }

    /**
     * Run the factory registered under @p key on @p args (for
     * registries whose Entry is callable).
     * @throws std::out_of_range if @p key is unknown.
     */
    template <typename... Args>
    auto
    make(const std::string &key, Args &&...args) const
    {
        return at(key)(std::forward<Args>(args)...);
    }

    /** @throws std::out_of_range unless @p key is registered. */
    void
    require(const std::string &key) const
    {
        std::shared_lock<std::shared_mutex> lock(mu);
        if (entries.count(key) == 0)
            throwUnknown(key);
    }

    bool
    contains(const std::string &key) const
    {
        std::shared_lock<std::shared_mutex> lock(mu);
        return entries.count(key) != 0;
    }

    /** Registered keys in sorted order. */
    std::vector<std::string>
    keys() const
    {
        std::shared_lock<std::shared_mutex> lock(mu);
        std::vector<std::string> out;
        out.reserve(entries.size());
        for (const auto &[key, entry] : entries)
            out.push_back(key);
        return out;
    }

  protected:
    /** @p what names the entry kind in messages ("scheduler"). */
    explicit Registry(std::string what) : what(std::move(what)) {}

    /**
     * Copy of the entry under @p key; if there is none, of the first
     * entry in key order that satisfies @p alias. The copy is taken
     * under the lock, which is released before the caller runs it.
     * @throws std::out_of_range if neither matches.
     */
    template <typename Alias>
    Entry
    at(const std::string &key, const Alias &alias) const
    {
        std::shared_lock<std::shared_mutex> lock(mu);
        if (const auto it = entries.find(key); it != entries.end())
            return it->second;
        for (const auto &[k, entry] : entries)
            if (alias(entry))
                return entry;
        throwUnknown(key);
    }

    Entry
    at(const std::string &key) const
    {
        return at(key, [](const Entry &) { return false; });
    }

    /** Whether @p key, or an entry satisfying @p alias, is registered. */
    template <typename Alias>
    bool
    contains(const std::string &key, const Alias &alias) const
    {
        std::shared_lock<std::shared_mutex> lock(mu);
        if (entries.count(key) != 0)
            return true;
        for (const auto &[k, entry] : entries)
            if (alias(entry))
                return true;
        return false;
    }

  private:
    /** @pre mu is held (shared or exclusive). */
    [[noreturn]] void
    throwUnknown(const std::string &key) const
    {
        throwUnknownKey(what.c_str(), key, std::views::keys(entries));
    }

    const std::string what;
    mutable std::shared_mutex mu;
    std::map<std::string, Entry> entries;
};

} // namespace dstrange

#endif // DSTRANGE_COMMON_REGISTRY_H
