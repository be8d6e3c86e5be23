#include "dram/dram_timings.h"

#include <algorithm>
#include <stdexcept>

#include "common/key_list.h"

namespace dstrange::dram {

namespace {

constexpr unsigned kAct = 0, kPre = 1, kRd = 2, kWr = 3;

/** max(0, a + b - c) without wrapping the unsigned Cycle. */
Cycle
gapOf(Cycle a, Cycle b, Cycle c)
{
    return a + b > c ? a + b - c : 0;
}

} // namespace

bool
timingsAreConsistent(const DramTimings &t)
{
    if (t.tRC < t.tRAS + t.tRP)
        return false;
    if (t.tRAS < t.tRCD)
        return false;
    if (t.tFAW < t.tRRD)
        return false;
    if (t.tREFI <= t.tRFC)
        return false;
    if (t.tCKns <= 0.0)
        return false;
    if (t.tCL + t.tBL + 2 < t.tCWL)
        return false;
    return true;
}

TimingTable
TimingTable::ddr(const DramTimings &t)
{
    if (!timingsAreConsistent(t))
        throw std::invalid_argument(
            "inconsistent DRAM timings (need tRC >= tRAS + tRP, "
            "tRAS >= tRCD, tFAW >= tRRD, tREFI > tRFC, tCK > 0, "
            "tCWL <= tCL + tBL + 2)");
    TimingTable tt;
    tt.bank[kAct] = {t.tRC, t.tRAS, t.tRCD, t.tRCD};
    tt.bank[kPre][kAct] = t.tRP;
    tt.bank[kRd] = {0, t.tRTP, t.tCCD, t.tCCD};
    // Write recovery starts at the end of the data burst.
    tt.bank[kWr] = {0, t.tCWL + t.tBL + t.tWR, t.tCCD, t.tCCD};
    tt.rank[kAct][kAct] = t.tRRD;
    // Column pairs: the channel-wide command gap, then the data bus.
    // A burst from command X ends at n + lat(X) + tBL; the next burst
    // (latency lat(Y)) may start right there on the same rank, or tRTRS
    // later on another rank.
    const Cycle lat[4] = {0, 0, t.tCL, t.tCWL};
    const Cycle cmdGap[4][4] = {{}, {},
                                {0, 0, t.tCCD, t.readToWrite()},
                                {0, 0, t.writeToRead(), t.tCCD}};
    for (unsigned from : {kRd, kWr}) {
        for (unsigned to : {kRd, kWr}) {
            tt.rank[from][to] = std::max(
                cmdGap[from][to], gapOf(lat[from], t.tBL, lat[to]));
            tt.channel[from][to] =
                std::max(cmdGap[from][to],
                         gapOf(lat[from], t.tBL + t.tRTRS, lat[to]));
        }
    }
    tt.readDone = t.tCL + t.tBL;
    tt.writeDone = t.tCWL + t.tBL;
    tt.afterRng = {gapOf(0, t.tRTRS, t.tCL), gapOf(0, t.tRTRS, t.tCWL)};
    tt.tFAW = t.tFAW;
    tt.tRFC = t.tRFC;
    tt.tREFI = t.tREFI;
    tt.tXP = t.tXP;
    tt.powerDown = true;
    return tt;
}

TimingTable
TimingTable::fixedLatency(Cycle read_latency, Cycle write_latency,
                          Cycle gap)
{
    TimingTable tt;
    for (Gaps *g : {&tt.rank, &tt.channel})
        for (unsigned from : {kRd, kWr})
            (*g)[from] = {0, 0, gap, gap};
    tt.readDone = read_latency;
    tt.writeDone = write_latency;
    tt.rngClosesRows = true;
    return tt;
}

void
requireChannelModel(const std::string &kind)
{
    keyIndex("backend", kChannelModels, kind);
}

} // namespace dstrange::dram
