#include "dram/dram_channel.h"

#include <algorithm>
#include <cassert>

namespace dstrange::dram {

DramChannel::DramChannel(const DramTimings &timings,
                         const DramGeometry &geometry)
    : t(timings), banksEach(geometry.banksPerRank)
{
    assert(geometry.ranksPerChannel > 0 && geometry.banksPerRank > 0);
    ranks.resize(geometry.ranksPerChannel);
    for (RankState &r : ranks)
        r.nextRefreshAt = timings.tREFI;
    banks.reserve(static_cast<std::size_t>(banksEach) * ranks.size());
    for (std::size_t i = 0; i < ranks.size() * banksEach; ++i)
        banks.emplace_back(t);
}

bool
DramChannel::rankCanAct(const RankState &r, Cycle now) const
{
    if (r.anyActIssued && now < r.lastActAt + t.tRRD)
        return false;
    if (r.actWindowCount == r.actWindow.size()) {
        // The oldest of the last four ACTs fences tFAW.
        const Cycle oldest = r.actWindow[r.actWindowPos];
        if (now < oldest + t.tFAW)
            return false;
    }
    return true;
}

Cycle
DramChannel::rankTurnaround(unsigned rankIdx) const
{
    // Bursts from different ranks need tRTRS of bus settling between
    // them; with one rank (or before any burst) this never applies.
    return (lastBurstRank >= 0 &&
            static_cast<unsigned>(lastBurstRank) != rankIdx)
               ? t.tRTRS
               : 0;
}

bool
DramChannel::canIssue(DramCmd cmd, unsigned bankIdx, Cycle now) const
{
    assert(bankIdx < banks.size());
    if (now < cmdBusFreeAt)
        return false;
    const unsigned rankIdx = rankOf(bankIdx);
    const RankState &r = ranks[rankIdx];
    if (refreshBusy(now) || rngBusy(now) || r.pd)
        return false;

    const Bank &b = banks[bankIdx];
    switch (cmd) {
      case DramCmd::Act:
        return !b.isOpen() && b.canIssue(cmd, now) && rankCanAct(r, now);
      case DramCmd::Pre:
        return b.isOpen() && b.canIssue(cmd, now);
      case DramCmd::Rd:
        if (!b.isOpen() || !b.canIssue(cmd, now) || now < nextRdAt)
            return false;
        return now + t.tCL >= dataBusFreeAt + rankTurnaround(rankIdx);
      case DramCmd::Wr:
        if (!b.isOpen() || !b.canIssue(cmd, now) || now < nextWrAt)
            return false;
        return now + t.tCWL >= dataBusFreeAt + rankTurnaround(rankIdx);
      case DramCmd::Ref:
        return false; // Refresh is issued internally by tickRefresh().
    }
    return false;
}

Cycle
DramChannel::earliestIssueCycle(DramCmd cmd, unsigned bankIdx) const
{
    assert(bankIdx < banks.size());
    const unsigned rankIdx = rankOf(bankIdx);
    const RankState &r = ranks[rankIdx];
    const Bank &b = banks[bankIdx];
    Cycle earliest = std::max(cmdBusFreeAt, b.earliestIssue(cmd));
    switch (cmd) {
      case DramCmd::Act:
        if (r.anyActIssued)
            earliest = std::max(earliest, r.lastActAt + t.tRRD);
        if (r.actWindowCount == r.actWindow.size())
            earliest =
                std::max(earliest, r.actWindow[r.actWindowPos] + t.tFAW);
        break;
      case DramCmd::Rd: {
        earliest = std::max(earliest, nextRdAt);
        // canIssue: now + tCL >= dataBusFreeAt + rank turnaround.
        const Cycle busFree = dataBusFreeAt + rankTurnaround(rankIdx);
        if (busFree > t.tCL)
            earliest = std::max(earliest, busFree - t.tCL);
        break;
      }
      case DramCmd::Wr: {
        earliest = std::max(earliest, nextWrAt);
        const Cycle busFree = dataBusFreeAt + rankTurnaround(rankIdx);
        if (busFree > t.tCWL)
            earliest = std::max(earliest, busFree - t.tCWL);
        break;
      }
      case DramCmd::Pre:
      case DramCmd::Ref:
        break;
    }
    return earliest;
}

Cycle
DramChannel::issue(DramCmd cmd, unsigned bankIdx, Cycle now, std::int64_t row)
{
    assert(canIssue(cmd, bankIdx, now));
    const unsigned rankIdx = rankOf(bankIdx);
    RankState &r = ranks[rankIdx];
    Bank &b = banks[bankIdx];
    cmdBusFreeAt = now + 1;
    r.lastActivityAt = now;
    if (onCommand)
        onCommand(cmd, bankIdx, now, row);

    switch (cmd) {
      case DramCmd::Act:
        b.issue(cmd, now, row);
        counters.nAct++;
        r.nOpenBanks++;
        r.lastActAt = now;
        r.anyActIssued = true;
        r.actWindow[r.actWindowPos] = now;
        r.actWindowPos = (r.actWindowPos + 1) % r.actWindow.size();
        r.actWindowCount = std::min<unsigned>(
            r.actWindowCount + 1,
            static_cast<unsigned>(r.actWindow.size()));
        return 0;
      case DramCmd::Pre:
        b.issue(cmd, now);
        counters.nPre++;
        assert(r.nOpenBanks > 0);
        r.nOpenBanks--;
        return 0;
      case DramCmd::Rd: {
        b.issue(cmd, now);
        counters.nRd++;
        nextRdAt = std::max(nextRdAt, now + t.tCCD);
        nextWrAt = std::max(nextWrAt, now + t.readToWrite());
        const Cycle done = now + t.tCL + t.tBL;
        dataBusFreeAt = done;
        lastBurstRank = static_cast<int>(rankIdx);
        return done;
      }
      case DramCmd::Wr: {
        b.issue(cmd, now);
        counters.nWr++;
        nextWrAt = std::max(nextWrAt, now + t.tCCD);
        nextRdAt = std::max(nextRdAt, now + t.writeToRead());
        const Cycle done = now + t.tCWL + t.tBL;
        dataBusFreeAt = done;
        lastBurstRank = static_cast<int>(rankIdx);
        return done;
      }
      case DramCmd::Ref:
        assert(false && "REF is issued internally by tickRefresh()");
        return 0;
    }
    return 0;
}

void
DramChannel::tickRefresh(Cycle now)
{
    for (unsigned ri = 0; ri < ranks.size(); ++ri) {
        RankState &r = ranks[ri];
        if (now < r.refreshDoneAt)
            continue; // This rank is inside tRFC; others may proceed.

        if (!r.stagingRefresh) {
            if (now >= r.nextRefreshAt)
                r.stagingRefresh = true;
            else
                continue;
        }

        // A refresh wakes a powered-down rank.
        if (r.pd)
            wakeRank(r, now);
        if (now < cmdBusFreeAt)
            return; // Shared command bus: nothing issues this cycle.

        // Do not interleave refresh staging with RNG-mode occupancy;
        // resume once the TRNG engine releases the channel.
        if (rngBusy(now))
            return;

        // Close the rank's open banks, one precharge per cycle
        // (command bus).
        if (r.nOpenBanks > 0) {
            if (now < cmdBusFreeAt)
                return;
            for (unsigned i = 0; i < banksEach; ++i) {
                const unsigned bi = ri * banksEach + i;
                Bank &b = banks[bi];
                if (b.isOpen() && b.canIssue(DramCmd::Pre, now)) {
                    b.issue(DramCmd::Pre, now);
                    counters.nPre++;
                    r.nOpenBanks--;
                    cmdBusFreeAt = now + 1;
                    if (onCommand)
                        onCommand(DramCmd::Pre, bi, now, kNoOpenRow);
                    return;
                }
            }
            continue; // tRAS/tRTP/tWR fences pending; try other ranks.
        }

        // All the rank's banks closed: wait for tRP fences, then
        // refresh the rank.
        if (now < cmdBusFreeAt)
            return;
        bool ready = true;
        for (unsigned i = 0; i < banksEach && ready; ++i)
            ready = banks[ri * banksEach + i].canIssue(DramCmd::Ref, now);
        if (!ready)
            continue;

        for (unsigned i = 0; i < banksEach; ++i)
            banks[ri * banksEach + i].blockUntil(now + t.tRFC);
        counters.nRef++;
        if (onCommand)
            onCommand(DramCmd::Ref, ri * banksEach, now, kNoOpenRow);
        cmdBusFreeAt = now + 1;
        r.refreshDoneAt = now + t.tRFC;
        r.nextRefreshAt += t.tREFI;
        r.stagingRefresh = false;
        return;
    }
}

bool
DramChannel::refreshBusy(Cycle now) const
{
    for (const RankState &r : ranks)
        if (r.stagingRefresh || now < r.refreshDoneAt)
            return true;
    return false;
}

bool
DramChannel::poweredDown() const
{
    for (const RankState &r : ranks)
        if (!r.pd)
            return false;
    return true;
}

bool
DramChannel::anyRankPoweredDown() const
{
    for (const RankState &r : ranks)
        if (r.pd)
            return true;
    return false;
}

unsigned
DramChannel::openBankCount() const
{
    unsigned open = 0;
    for (const RankState &r : ranks)
        open += r.nOpenBanks;
    return open;
}

void
DramChannel::wakeRank(RankState &r, Cycle now)
{
    if (!r.pd)
        return;
    r.pd = false;
    r.lastActivityAt = now;
    cmdBusFreeAt = std::max(cmdBusFreeAt, now + t.tXP);
}

void
DramChannel::requestWake(Cycle now)
{
    for (RankState &r : ranks)
        wakeRank(r, now);
}

void
DramChannel::occupyForRng(Cycle until)
{
    // RNG-mode accesses target reserved rows (D-RaNGe) or reserved
    // subarrays (QUAC), so application row-buffer contents survive; the
    // channel's command and data buses are simply unavailable while
    // non-standard timing parameters are active.
    if (anyRankPoweredDown())
        requestWake(until > 0 ? until - 1 : 0);
    rngBusyUntil = std::max(rngBusyUntil, until);
    cmdBusFreeAt = std::max(cmdBusFreeAt, until);
    dataBusFreeAt = std::max(dataBusFreeAt, until);
    for (RankState &r : ranks)
        r.lastActivityAt = std::max(r.lastActivityAt, until);
}

Cycle
DramChannel::nextEventCycle(Cycle now, bool engine_active) const
{
    Cycle ev = kNoEvent;

    // Refresh machinery, per rank. While a rank is inside tRFC nothing
    // happens until its refreshDoneAt; while a refresh is being staged
    // the channel does per-cycle work (unless the TRNG engine holds the
    // channel, in which case tickRefresh() early-returns on the
    // engine-maintained command-bus fence and staging resumes at the
    // engine's next event); otherwise the rank's next edge is
    // nextRefreshAt (the staging flag flips there, changing
    // refreshBusy()).
    for (const RankState &r : ranks) {
        if (now < r.refreshDoneAt) {
            ev = std::min(ev, r.refreshDoneAt);
        } else if (r.stagingRefresh) {
            if (!engine_active)
                return now;
        } else {
            ev = std::min(ev, r.nextRefreshAt);
        }
    }

    if (!engine_active) {
        // An expiring RNG-mode fence changes sampleState()'s residency
        // branch and unblocks refresh staging and regular issue.
        if (rngBusyUntil > now)
            ev = std::min(ev, rngBusyUntil);

        // Precharge power-down entry happens inside sampleState() at a
        // computable cycle, independently per rank. The candidate may
        // be invalidated by intervening events (refresh, commands);
        // that only re-derives a later candidate, never skips the
        // entry.
        if (pdThreshold > 0 && !refreshBusy(now)) {
            for (const RankState &r : ranks) {
                if (r.pd || r.nOpenBanks != 0)
                    continue;
                const Cycle entry =
                    std::max({cmdBusFreeAt, rngBusyUntil,
                              r.lastActivityAt + pdThreshold});
                ev = std::min(ev, std::max(entry, now));
            }
        }
    }
    return ev;
}

void
DramChannel::fastForwardState(Cycle from, Cycle to)
{
    assert(to > from);
    const Cycle span = to - from;
    // The branch sampleState() takes is constant over the span: the
    // caller stops at every refresh edge, RNG-fence expiry, power-down
    // entry, and command issue. An active TRNG engine keeps
    // rngBusyUntil at least one cycle ahead throughout, so evaluating
    // the branch at `from` is exact.
    bool refreshing = false;
    for (const RankState &r : ranks)
        refreshing = refreshing || from < r.refreshDoneAt;
    if (from < rngBusyUntil || refreshing || openBankCount() > 0)
        counters.cyclesActive += span;
    else if (poweredDown())
        counters.cyclesPoweredDown += span;
    else
        counters.cyclesPrecharged += span;
}

void
DramChannel::sampleState(Cycle now)
{
    // Power-down entry check, per rank: all of the rank's banks closed,
    // nothing in flight, and the idle threshold elapsed.
    if (pdThreshold > 0 && !rngBusy(now) && !refreshBusy(now) &&
        now >= cmdBusFreeAt) {
        for (RankState &r : ranks) {
            if (!r.pd && r.nOpenBanks == 0 &&
                now >= r.lastActivityAt + pdThreshold)
                r.pd = true;
        }
    }

    // RNG-mode occupancy and refresh are counted as active cycles: the
    // device is burning row-cycle power in both.
    bool refreshing = false;
    for (const RankState &r : ranks)
        refreshing = refreshing || now < r.refreshDoneAt;
    if (rngBusy(now) || refreshing || openBankCount() > 0)
        counters.cyclesActive++;
    else if (poweredDown())
        counters.cyclesPoweredDown++;
    else
        counters.cyclesPrecharged++;
}

} // namespace dstrange::dram
