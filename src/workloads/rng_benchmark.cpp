#include "workloads/rng_benchmark.h"

#include <algorithm>
#include <cmath>

namespace dstrange::workloads {

std::uint64_t
RngBenchmark::gapForThroughput(double mbps)
{
    // requests/s at the target throughput, 64 bits per request.
    const double req_per_sec = mbps * 1e6 / 64.0;
    // Ideal instruction rate: issue width x core frequency.
    const double instr_per_sec = 3.0 * kCpuFreqHz;
    return static_cast<std::uint64_t>(
        std::max(1.0, std::round(instr_per_sec / req_per_sec)));
}

RngBenchmark::RngBenchmark(double throughput_mbps,
                           const dram::DramGeometry & /*geometry*/,
                           std::uint64_t seed, double regular_read_mpki)
    : benchName("rng" + std::to_string(static_cast<int>(throughput_mbps))),
      mbps(throughput_mbps), gap(gapForThroughput(throughput_mbps)),
      gen(mix64(seed) ^ 0xc0ffee)
{
    // Convert the light regular-read MPKI into a per-op probability:
    // ops arrive every `gap` instructions, so reads/op = mpki*gap/1000.
    readProbability =
        std::min(0.5, regular_read_mpki * static_cast<double>(gap) / 1000.0);
}

cpu::TraceOp
RngBenchmark::next()
{
    cpu::TraceOp op;
    op.computeInstrs = gap;
    if (gen.nextBool(readProbability)) {
        // Occasional regular read. The stride covers all banks and
        // channels but stays within a small working set — RNG
        // applications are not memory-intensive (Section 7), and their
        // compact footprint is what lets the idleness predictor learn
        // their arrival behaviour.
        constexpr std::uint64_t kFootprintLines = 1u << 16; // 4 MB
        lineCursor = (lineCursor + 97) % kFootprintLines;
        op.type = mem::ReqType::Read;
        op.addr = lineCursor * kLineBytes;
    } else {
        op.type = mem::ReqType::Rng;
        op.addr = 0;
    }
    return op;
}

} // namespace dstrange::workloads
