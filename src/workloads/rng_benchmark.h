/**
 * @file
 * Synthetic RNG application benchmarks (Section 7): request 64-bit
 * random numbers at a target throughput, controlled by the number of
 * compute instructions between consecutive requests, plus a light
 * sprinkle of regular reads across all banks and channels.
 */

#ifndef DSTRANGE_WORKLOADS_RNG_BENCHMARK_H
#define DSTRANGE_WORKLOADS_RNG_BENCHMARK_H

#include <string>

#include "common/rng.h"
#include "cpu/trace_source.h"
#include "dram/address_mapper.h"

namespace dstrange::workloads {

/** RNG micro-benchmark trace generator. */
class RngBenchmark : public cpu::TraceSource
{
  public:
    /**
     * @param throughput_mbps required RNG throughput (e.g. 640..10240)
     * @param geometry memory geometry (unused: the regular-read stride
     *        is geometry-independent; kept so every trace generator is
     *        built from the same arguments)
     * @param seed deterministic stream seed
     * @param regular_read_mpki light non-RNG intensity (paper: the RNG
     *        benchmarks are not memory intensive in terms of non-RNG
     *        requests)
     */
    RngBenchmark(double throughput_mbps,
                 const dram::DramGeometry &geometry, std::uint64_t seed,
                 double regular_read_mpki = 0.5);

    cpu::TraceOp next() override;
    const std::string &name() const override { return benchName; }

    /** Compute instructions between two RNG requests. */
    std::uint64_t instrGap() const { return gap; }

    double throughputMbps() const { return mbps; }

    /**
     * Derive the instruction gap for a target throughput assuming the
     * core's ideal issue rate (3-wide at 4 GHz).
     */
    static std::uint64_t gapForThroughput(double mbps);

  private:
    std::string benchName;
    double mbps;
    std::uint64_t gap;
    Xoshiro256ss gen;
    double readProbability; ///< P(regular read instead of RNG request).
    std::uint64_t lineCursor = 0;
};

} // namespace dstrange::workloads

#endif // DSTRANGE_WORKLOADS_RNG_BENCHMARK_H
