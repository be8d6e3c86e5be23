/**
 * @file
 * Fixed, sorted key lists: the closed policy axes that config text
 * selects by key (address mappings, channel models, fault models,
 * arrival processes, shed policies, idleness predictors). Each axis is
 * a constexpr array of keys in sorted order, so `drstrange_sim --list`
 * prints it as is, plus an enum declared in the same order. An unknown
 * key throws std::out_of_range
 * "unknown <what> '<key>' (registered: a, b, ...)", the same message
 * the open registries (common/registry.h) give.
 */

#ifndef DSTRANGE_COMMON_KEY_LIST_H
#define DSTRANGE_COMMON_KEY_LIST_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dstrange {

/** @throws std::out_of_range naming @p key and every one of @p keys. */
template <typename Keys>
[[noreturn]] void
throwUnknownKey(const char *what, const std::string &key, const Keys &keys)
{
    std::string msg = "unknown ";
    msg += what;
    msg += " '" + key + "' (registered: ";
    bool first = true;
    for (const auto &k : keys) {
        if (!first)
            msg += ", ";
        msg += k;
        first = false;
    }
    msg += ")";
    throw std::out_of_range(msg);
}

/**
 * Position of @p key in @p keys (the enum value of the axis).
 * @throws std::out_of_range naming @p what unless @p keys lists @p key.
 */
template <std::size_t N>
std::size_t
keyIndex(const char *what, const std::array<const char *, N> &keys,
         const std::string &key)
{
    for (std::size_t i = 0; i < N; ++i)
        if (key == keys[i])
            return i;
    throwUnknownKey(what, key, keys);
}

/** Whether @p keys is in the order `--list` and the messages promise. */
template <std::size_t N>
constexpr bool
sortedKeys(const std::array<const char *, N> &keys)
{
    return std::is_sorted(keys.begin(), keys.end(),
                          [](const char *a, const char *b) {
                              return std::string_view(a) <
                                     std::string_view(b);
                          });
}

} // namespace dstrange

#endif // DSTRANGE_COMMON_KEY_LIST_H
