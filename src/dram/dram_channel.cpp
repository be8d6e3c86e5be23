#include "dram/dram_channel.h"

#include <cassert>

namespace dstrange::dram {

namespace {

constexpr auto kAct = static_cast<unsigned>(DramCmd::Act);
constexpr auto kPre = static_cast<unsigned>(DramCmd::Pre);
constexpr auto kRd = static_cast<unsigned>(DramCmd::Rd);
constexpr auto kWr = static_cast<unsigned>(DramCmd::Wr);

} // namespace

DramChannel::DramChannel(const TimingTable &table,
                         const DramGeometry &geometry)
    : banksEach(geometry.banksPerRank), banks(geometry.banksPerChannel()),
      ranks(geometry.ranksPerChannel), tt(table)
{
    assert(geometry.ranksPerChannel > 0 && geometry.banksPerRank > 0);
    for (RankState &r : ranks)
        r.nextRefreshAt = tt.tREFI > 0 ? tt.tREFI : kNoEvent;
}

bool
DramChannel::canIssue(DramCmd cmd, unsigned bankIdx, Cycle now) const
{
    assert(bankIdx < banks.size());
    if (cmd == DramCmd::Ref)
        return false; // Refresh is issued internally by tickRefresh().
    // ACT needs a closed bank; PRE, RD and WR need an open one.
    if ((banks[bankIdx].row == kNoOpenRow) != (cmd == DramCmd::Act) ||
        now < earliestIssueCycle(cmd, bankIdx))
        return false;
    const unsigned rankIdx = rankOf(bankIdx);
    if (refreshing(now) || rngBusy(now) || ranks[rankIdx].pd)
        return false;
    return !blackedOut(now) ||
           (blackoutRank >= 0 &&
            rankIdx != static_cast<unsigned>(blackoutRank));
}

void
DramChannel::applyGaps(DramCmd cmd, unsigned bankIdx, Cycle now)
{
    const auto from = static_cast<unsigned>(cmd);
    const unsigned rankIdx = rankOf(bankIdx);
    Fences &bank = banks[bankIdx].next;
    for (unsigned to = 0; to < 4; ++to) {
        // An ACT starts a fresh row cycle in its bank.
        const Cycle b = now + tt.bank[from][to];
        bank[to] = cmd == DramCmd::Act ? b : std::max(bank[to], b);
        for (unsigned ri = 0; ri < ranks.size(); ++ri) {
            const TimingTable::Gaps &g = ri == rankIdx ? tt.rank : tt.channel;
            ranks[ri].next[to] =
                std::max(ranks[ri].next[to], now + g[from][to]);
        }
    }
}

void
DramChannel::precharge(unsigned bankIdx, Cycle now)
{
    applyGaps(DramCmd::Pre, bankIdx, now);
    banks[bankIdx].row = kNoOpenRow;
    counters.nPre++;
    RankState &r = ranks[rankOf(bankIdx)];
    assert(r.nOpenBanks > 0);
    r.nOpenBanks--;
}

Cycle
DramChannel::issue(DramCmd cmd, unsigned bankIdx, Cycle now, std::int64_t row)
{
    assert(canIssue(cmd, bankIdx, now));
    const unsigned rankIdx = rankOf(bankIdx);
    RankState &r = ranks[rankIdx];
    cmdBusFreeAt = now + 1;
    r.lastActivityAt = now;
    if (onCommand)
        onCommand(cmd, bankIdx, now, row);
    if (cmd == DramCmd::Pre) {
        precharge(bankIdx, now);
        return 0;
    }

    applyGaps(cmd, bankIdx, now);
    switch (cmd) {
      case DramCmd::Act:
        assert(row != kNoOpenRow);
        banks[bankIdx].row = row;
        counters.nAct++;
        r.nOpenBanks++;
        // The oldest of the rank's last four ACTs fences the next one.
        r.actWindow[r.actWindowPos] = now;
        r.actWindowPos = (r.actWindowPos + 1) % r.actWindow.size();
        if (r.actWindowCount < r.actWindow.size())
            r.actWindowCount++;
        if (r.actWindowCount == r.actWindow.size())
            r.next[kAct] = std::max(r.next[kAct],
                                    r.actWindow[r.actWindowPos] + tt.tFAW);
        return 0;
      case DramCmd::Rd:
        counters.nRd++;
        lastBurstRank = static_cast<int>(rankIdx);
        return now + tt.readDone;
      case DramCmd::Wr:
        counters.nWr++;
        lastBurstRank = static_cast<int>(rankIdx);
        return now + tt.writeDone;
      case DramCmd::Pre:
      case DramCmd::Ref:
        break;
    }
    assert(false && "REF is issued internally by tickRefresh()");
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
        const unsigned first = ri * banksEach;
        if (r.nOpenBanks > 0) {
            for (unsigned bi = first; bi < first + banksEach; ++bi) {
                if (banks[bi].row != kNoOpenRow &&
                    now >= banks[bi].next[kPre]) {
                    precharge(bi, now);
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
        bool ready = true;
        for (unsigned bi = first; bi < first + banksEach && ready; ++bi)
            ready = now >= banks[bi].next[kAct];
        if (!ready)
            continue;

        for (unsigned bi = first; bi < first + banksEach; ++bi)
            banks[bi].next[kAct] =
                std::max(banks[bi].next[kAct], now + tt.tRFC);
        counters.nRef++;
        if (onCommand)
            onCommand(DramCmd::Ref, first, now, kNoOpenRow);
        cmdBusFreeAt = now + 1;
        r.refreshDoneAt = now + tt.tRFC;
        r.nextRefreshAt += tt.tREFI;
        r.stagingRefresh = false;
        return;
    }
}

bool
DramChannel::refreshing(Cycle now) const
{
    for (const RankState &r : ranks)
        if (r.stagingRefresh || now < r.refreshDoneAt)
            return true;
    return false;
}

Cycle
DramChannel::nextBlackoutEdge(Cycle now) const
{
    if (blackoutDuration == 0)
        return kNoEvent;
    if (now < blackoutPhase)
        return blackoutPhase;
    const Cycle pos = (now - blackoutPhase) % blackoutPeriod;
    return pos < blackoutDuration ? now + (blackoutDuration - pos)
                                  : now + (blackoutPeriod - pos);
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
    cmdBusFreeAt = std::max(cmdBusFreeAt, now + tt.tXP);
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
    // DDR: RNG-mode accesses target reserved rows (D-RaNGe) or reserved
    // subarrays (QUAC), so application row-buffer contents survive; the
    // channel's command and data buses are simply unavailable while
    // non-standard timing parameters are active. The fixed-latency row
    // closes every bank instead.
    if (tt.rngClosesRows) {
        for (BankState &b : banks)
            b.row = kNoOpenRow;
        for (RankState &r : ranks)
            r.nOpenBanks = 0;
    }
    if (anyRankPoweredDown())
        requestWake(until > 0 ? until - 1 : 0);
    rngBusyUntil = std::max(rngBusyUntil, until);
    cmdBusFreeAt = std::max(cmdBusFreeAt, until);
    for (unsigned ri = 0; ri < ranks.size(); ++ri) {
        RankState &r = ranks[ri];
        r.lastActivityAt = std::max(r.lastActivityAt, until);
        // The data bus is held until `until` too: a burst from a rank
        // other than the last one still owes the rank turnaround.
        if (lastBurstRank >= 0 && ri != static_cast<unsigned>(lastBurstRank)) {
            r.next[kRd] = std::max(r.next[kRd], until + tt.afterRng[0]);
            r.next[kWr] = std::max(r.next[kWr], until + tt.afterRng[1]);
        }
    }
}

Cycle
DramChannel::nextEventCycle(Cycle now, bool engine_active) const
{
    // An outage window edge flips canIssue()/refreshBusy().
    Cycle ev = nextBlackoutEdge(now);

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
        if (pdThreshold > 0 && !refreshing(now)) {
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
    bool inRfc = false;
    for (const RankState &r : ranks)
        inRfc = inRfc || from < r.refreshDoneAt;
    if (from < rngBusyUntil || inRfc || openBankCount() > 0)
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
    if (pdThreshold > 0 && !rngBusy(now) && !refreshing(now) &&
        now >= cmdBusFreeAt) {
        for (RankState &r : ranks) {
            if (!r.pd && r.nOpenBanks == 0 &&
                now >= r.lastActivityAt + pdThreshold)
                r.pd = true;
        }
    }

    // RNG-mode occupancy and refresh are counted as active cycles: the
    // device is burning row-cycle power in both.
    bool inRfc = false;
    for (const RankState &r : ranks)
        inRfc = inRfc || now < r.refreshDoneAt;
    if (rngBusy(now) || inRfc || openBankCount() > 0)
        counters.cyclesActive++;
    else if (poweredDown())
        counters.cyclesPoweredDown++;
    else
        counters.cyclesPrecharged++;
}

} // namespace dstrange::dram
