/**
 * @file
 * Statistical profiles of the paper's 43 single-core applications
 * (SPEC CPU2006, TPC, STREAM, MediaBench, YCSB). We do not have the
 * original SimPoint traces, so each application is modelled by the
 * memory-stream statistics that drive the mechanisms under study:
 * memory intensity (MPKI), read fraction, row-buffer locality, bank
 * parallelism and burstiness. Profile values are chosen so the paper's
 * L/M/H categories and the plotted per-application ordering hold
 * (tests/workloads_test.cpp checks both).
 */

#ifndef DSTRANGE_WORKLOADS_APP_PROFILE_H
#define DSTRANGE_WORKLOADS_APP_PROFILE_H

#include <string>
#include <vector>

namespace dstrange::workloads {

/** Memory-behaviour profile of one application. */
struct AppProfile
{
    std::string name;
    double mpki = 1.0;         ///< LLC misses per kilo-instruction.
    double readFraction = 0.7; ///< Fraction of misses that are reads.
    double rowLocality = 0.6;  ///< P(sequential next line).
    unsigned hotBanks = 8;     ///< Bank-level parallelism (1..8).
    /** P(stay) of the bursty state in the two-state arrival modulator. */
    double burstStay = 0.9;
    /** Request-rate multiplier while bursting (1 = not bursty). */
    double burstIntensity = 4.0;
    /** Working-set size in cache lines. */
    std::uint64_t footprintLines = 1u << 20;

    /** Paper category: L (<1), M (1..10), H (>=10) by MPKI. */
    char
    category() const
    {
        if (mpki < 1.0)
            return 'L';
        if (mpki < 10.0)
            return 'M';
        return 'H';
    }
};

/** The full 43-application table. */
const std::vector<AppProfile> &appTable();

/** Look up a profile by name; throws std::out_of_range if unknown. */
const AppProfile &appByName(const std::string &name);

/** All applications in the given category ('L', 'M' or 'H'). */
std::vector<const AppProfile *> appsByCategory(char category);

/**
 * The 23 medium/high-intensity applications the paper plots, in the
 * paper's x-axis order (Fig. 1/5/6/9/10/11/13/14/15/16/17).
 */
const std::vector<std::string> &paperPlottedApps();

} // namespace dstrange::workloads

#endif // DSTRANGE_WORKLOADS_APP_PROFILE_H
