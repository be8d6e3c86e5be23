/**
 * @file
 * Fundamental type aliases shared by every subsystem.
 */

#ifndef DSTRANGE_COMMON_TYPES_H
#define DSTRANGE_COMMON_TYPES_H

#include <cstdint>
#include <string_view>

namespace dstrange {

/** A point in time or a duration, measured in DRAM bus cycles (800 MHz). */
using Cycle = std::uint64_t;

/** A point in time or a duration, measured in CPU cycles (4 GHz). */
using CpuCycle = std::uint64_t;

/** A physical byte address. */
using Addr = std::uint64_t;

/** Identifier of a core (and of the application pinned to it). */
using CoreId = std::uint32_t;

/** Number of CPU cycles that elapse per DRAM bus cycle (4 GHz / 800 MHz). */
inline constexpr unsigned kCpuCyclesPerBusCycle = 5;

/**
 * Event-horizon sentinel: "this component schedules no future event on
 * its own". Used by the cycle-skipping fast-forward machinery; a
 * component returning kNoEvent changes state only in reaction to other
 * components' events (e.g. a stalled core waiting for a completion).
 */
inline constexpr Cycle kNoEvent = ~Cycle{0};

/** DRAM bus frequency in Hz (DDR3-1600: 800 MHz bus clock). */
inline constexpr double kBusFreqHz = 800e6;

/** CPU core frequency in Hz. */
inline constexpr double kCpuFreqHz = 4e9;

/** Cache-line size in bytes; all memory requests are one line. */
inline constexpr unsigned kLineBytes = 64;

/**
 * 64-bit FNV-1a hash. Unlike std::hash, the result is pinned by the
 * algorithm itself — identical on every platform, process, and library
 * build — so it is safe to use for cross-process agreements
 * (persistent cache file names, trace-tape checksums).
 */
inline constexpr std::uint64_t
fnv1a64(std::string_view data)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace dstrange

#endif // DSTRANGE_COMMON_TYPES_H
