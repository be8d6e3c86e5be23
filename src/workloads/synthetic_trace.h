/**
 * @file
 * Synthetic memory-trace generator: turns an AppProfile into an infinite
 * operation stream with the profile's MPKI, read/write mix, row-buffer
 * locality, bank-level parallelism and bursty arrivals.
 */

#ifndef DSTRANGE_WORKLOADS_SYNTHETIC_TRACE_H
#define DSTRANGE_WORKLOADS_SYNTHETIC_TRACE_H

#include <string>

#include "common/rng.h"
#include "cpu/trace_source.h"
#include "dram/address_mapper.h"
#include "workloads/app_profile.h"

namespace dstrange::workloads {

/**
 * Deterministic per-(application, core, seed) stream generator.
 *
 * Arrival process: the gap (compute instructions) before each access is
 * geometric with mean 1000/MPKI, modulated by a two-state (calm/bursty)
 * Markov chain — bursty phases compress gaps by the profile's intensity
 * factor, producing the short-idle-period-dominated distributions of the
 * paper's Figure 5.
 *
 * Address process: with probability rowLocality the stream continues
 * sequentially (which preserves row hits under the line-interleaved
 * channel mapping); otherwise it jumps to a random line in the working
 * set, restricted to the profile's hot banks.
 */
class SyntheticTrace : public cpu::TraceSource
{
  public:
    SyntheticTrace(const AppProfile &profile,
                   const dram::DramGeometry &geometry, CoreId core,
                   std::uint64_t seed);

    cpu::TraceOp next() override;
    const std::string &name() const override { return prof.name; }

    const AppProfile &profile() const { return prof; }

  private:
    Addr randomJump();

    AppProfile prof;
    dram::AddressMapping mapper; ///< The default "row-bank-col-ch".
    Xoshiro256ss gen;

    std::uint64_t currentLine; ///< Line address of the last access.
    std::uint64_t baseLine;    ///< Start of this core's working set.
    bool bursting = false;
    double meanGap = 1.0;      ///< Calm-state mean compute gap.
};

} // namespace dstrange::workloads

#endif // DSTRANGE_WORKLOADS_SYNTHETIC_TRACE_H
