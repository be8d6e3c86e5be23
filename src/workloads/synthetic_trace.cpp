#include "workloads/synthetic_trace.h"

#include <algorithm>

namespace dstrange::workloads {

SyntheticTrace::SyntheticTrace(const AppProfile &profile,
                               const dram::DramGeometry &geometry,
                               CoreId core, std::uint64_t seed)
    : prof(profile), mapper(geometry),
      gen(mix64(seed) ^ mix64(core * 0x9e37u + 1) ^
          mix64(std::hash<std::string>{}(profile.name)))
{
    // The burst modulator spends a stationary 1/3 of accesses in the
    // bursty state (enter probability is half the exit probability), so
    // normalize the calm-state gap to keep the long-run MPKI on target:
    // E[gap] = f*g/m + (1-f)*g with f = 1/3 and m = burstIntensity.
    const double target_gap = std::max(1.0, 1000.0 / prof.mpki - 1.0);
    const double f = 1.0 / 3.0;
    meanGap = target_gap / (1.0 - f + f / prof.burstIntensity);
    // Give each core a disjoint region so co-running applications contend
    // for banks/rows, not for data.
    const std::uint64_t total_lines =
        geometry.capacityBytes() / kLineBytes;
    baseLine = (static_cast<std::uint64_t>(core) * (total_lines / 16)) %
               total_lines;
    currentLine = baseLine;
}

Addr
SyntheticTrace::randomJump()
{
    // Random line in the working set, restricted to hot banks. The
    // calm and bursty phases touch disjoint halves of the working set,
    // modelling program-phase behaviour: the address stream carries
    // information about the arrival process, which is exactly the
    // correlation DR-STRaNGe's last-address-indexed idleness predictor
    // exploits (Section 5.1.2).
    const dram::DramGeometry &g = mapper.geometry();
    dram::DramCoord coord;
    coord.channel = static_cast<unsigned>(gen.nextBelow(g.channels));
    coord.bank = static_cast<unsigned>(gen.nextBelow(prof.hotBanks)) %
                 g.banksPerRank;
    const std::uint64_t rows_in_footprint = std::max<std::uint64_t>(
        2, prof.footprintLines /
               (static_cast<std::uint64_t>(g.colsPerRow()) * g.channels *
                prof.hotBanks));
    const std::uint64_t half = rows_in_footprint / 2;
    const std::uint64_t row_offset =
        bursting ? gen.nextBelow(half) : half + gen.nextBelow(half);
    coord.row = static_cast<unsigned>(
        (baseLine / (g.colsPerRow() * g.banksPerRank) + row_offset) %
        g.rowsPerBank);
    coord.col = static_cast<unsigned>(gen.nextBelow(g.colsPerRow()));
    return mapper.encode(coord);
}

cpu::TraceOp
SyntheticTrace::next()
{
    // Burst-state transition (evaluated per access).
    if (bursting) {
        if (!gen.nextBool(prof.burstStay))
            bursting = false;
    } else {
        // Calm->burst so that the chain spends ~35% of accesses bursting.
        const double enter = (1.0 - prof.burstStay) * 0.5;
        if (gen.nextBool(enter))
            bursting = true;
    }

    const double gap_mean =
        bursting ? meanGap / prof.burstIntensity : meanGap;

    cpu::TraceOp op;
    op.computeInstrs = gen.nextGeometric(gap_mean);
    op.type = gen.nextBool(prof.readFraction) ? mem::ReqType::Read
                                              : mem::ReqType::Write;

    if (gen.nextBool(prof.rowLocality)) {
        currentLine++;
    } else {
        currentLine = randomJump() / kLineBytes;
    }
    op.addr = currentLine * kLineBytes;
    return op;
}

} // namespace dstrange::workloads
