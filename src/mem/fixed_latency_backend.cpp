#include "mem/fixed_latency_backend.h"

#include <algorithm>
#include <cassert>

namespace dstrange::mem {

FixedLatencyBackend::FixedLatencyBackend(const dram::DramGeometry &geometry,
                                         Cycle read_latency,
                                         Cycle write_latency, Cycle column_gap)
    : ranks(geometry.ranksPerChannel), banksEach(geometry.banksPerRank),
      readLatency(read_latency), writeLatency(write_latency),
      columnGap(column_gap),
      openRows(geometry.banksPerChannel(), dram::kNoOpenRow)
{
    assert(readLatency > 0 && writeLatency > 0);
}

Cycle
FixedLatencyBackend::earliestIssueCycle(dram::DramCmd cmd,
                                        unsigned bankIdx) const
{
    (void)bankIdx;
    Cycle earliest = cmdBusFreeAt;
    if (cmd == dram::DramCmd::Rd || cmd == dram::DramCmd::Wr)
        earliest = std::max(earliest, nextColAt);
    return earliest;
}

bool
FixedLatencyBackend::canIssue(dram::DramCmd cmd, unsigned bankIdx,
                              Cycle now) const
{
    if (rngBusy(now))
        return false;
    if (now < earliestIssueCycle(cmd, bankIdx))
        return false;
    switch (cmd) {
      case dram::DramCmd::Act:
        return openRows[bankIdx] == dram::kNoOpenRow;
      case dram::DramCmd::Pre:
      case dram::DramCmd::Rd:
      case dram::DramCmd::Wr:
        return openRows[bankIdx] != dram::kNoOpenRow;
      case dram::DramCmd::Ref:
        return false; // The analytical model has no refresh.
    }
    return false;
}

Cycle
FixedLatencyBackend::issue(dram::DramCmd cmd, unsigned bankIdx, Cycle now,
                           std::int64_t row)
{
    assert(canIssue(cmd, bankIdx, now));
    cmdBusFreeAt = now + 1;
    Cycle done = 0;
    switch (cmd) {
      case dram::DramCmd::Act:
        openRows[bankIdx] = row;
        ++nOpen;
        counters.nAct++;
        break;
      case dram::DramCmd::Pre:
        openRows[bankIdx] = dram::kNoOpenRow;
        --nOpen;
        counters.nPre++;
        break;
      case dram::DramCmd::Rd:
        nextColAt = now + columnGap;
        done = now + readLatency;
        counters.nRd++;
        break;
      case dram::DramCmd::Wr:
        nextColAt = now + columnGap;
        done = now + writeLatency;
        counters.nWr++;
        break;
      case dram::DramCmd::Ref:
        assert(false && "fixed-latency backend issues no REF");
        break;
    }
    if (onCommand)
        onCommand(cmd, bankIdx, now, row);
    return done;
}

void
FixedLatencyBackend::occupyForRng(Cycle until)
{
    // RNG mode takes the whole channel: close every bank and fence
    // regular issue until the engine releases it.
    for (std::int64_t &r : openRows)
        r = dram::kNoOpenRow;
    nOpen = 0;
    rngBusyUntil = std::max(rngBusyUntil, until);
    cmdBusFreeAt = std::max(cmdBusFreeAt, until);
}

void
FixedLatencyBackend::sampleState(Cycle now)
{
    if (activeNow(now))
        counters.cyclesActive++;
    else
        counters.cyclesPrecharged++;
}

Cycle
FixedLatencyBackend::nextEventCycle(Cycle now, bool engine_active) const
{
    // The only per-cycle housekeeping is state sampling, whose branch
    // flips when an RNG fence expires; bank state changes only through
    // commands, which the controller tracks as its own events. While
    // the engine is active it extends the fence itself, so the expiry
    // is not an event of ours.
    if (!engine_active && rngBusy(now) && nOpen == 0)
        return rngBusyUntil;
    return kNoEvent;
}

void
FixedLatencyBackend::fastForwardState(Cycle from, Cycle to)
{
    const Cycle span = to - from;
    if (activeNow(from))
        counters.cyclesActive += span;
    else
        counters.cyclesPrecharged += span;
}

} // namespace dstrange::mem
