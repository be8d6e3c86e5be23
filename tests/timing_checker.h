/**
 * @file
 * Independent JEDEC timing verifier for tests: subscribes to a
 * DramChannel's command stream and re-checks every constraint with its
 * own bookkeeping (no shared state with the channel model). Any
 * violation is recorded with a human-readable description.
 */

#ifndef DSTRANGE_TESTS_TIMING_CHECKER_H
#define DSTRANGE_TESTS_TIMING_CHECKER_H

#include <deque>
#include <string>
#include <vector>

#include "dram/dram_channel.h"
#include "dram/dram_timings.h"

namespace dstrange::testutil {

/** Shadow JEDEC-constraint validator. Banks are the flat rank-major
 *  slots of one channel; @p banks_per_rank scopes tRRD/tFAW/REF to the
 *  owning rank (defaulting to all banks, i.e. a single rank). */
class TimingChecker
{
  public:
    TimingChecker(const dram::DramTimings &timings, unsigned banks,
                  unsigned banks_per_rank = 0)
        : t(timings), bankState(banks),
          banksEach(banks_per_rank == 0 ? banks : banks_per_rank),
          rankActTimes((banks + banksEach - 1) / banksEach)
    {
    }

    /** Attach to a channel (replaces any existing observer). */
    void
    attach(dram::DramChannel &channel)
    {
        channel.setCommandObserver(
            [this](dram::DramCmd cmd, unsigned bank, Cycle now,
                   std::int64_t row) { onCommand(cmd, bank, now, row); });
    }

    const std::vector<std::string> &violations() const { return errors; }
    std::uint64_t commandsChecked() const { return nCommands; }

  private:
    struct BankShadow
    {
        bool open = false;
        std::int64_t row = -1;
        Cycle lastAct = 0;
        Cycle lastPre = 0;
        Cycle lastRd = 0;
        Cycle lastWr = 0;
        bool hasAct = false, hasPre = false, hasRd = false, hasWr = false;
        Cycle blockedUntil = 0; ///< After REF.
    };

    void
    fail(const std::string &what, Cycle now)
    {
        errors.push_back(what + " @cycle " + std::to_string(now));
    }

    void
    onCommand(dram::DramCmd cmd, unsigned bank, Cycle now,
              std::int64_t row)
    {
        nCommands++;

        // Command bus: one command per cycle.
        if (haveLastCmd && now == lastCmdAt)
            fail("two commands in one cycle", now);
        if (haveLastCmd && now < lastCmdAt)
            fail("time went backwards", now);
        lastCmdAt = now;
        haveLastCmd = true;

        BankShadow &b = bankState[bank];
        const unsigned rank = bank / banksEach;
        switch (cmd) {
          case dram::DramCmd::Act: {
            if (b.open)
                fail("ACT to open bank", now);
            if (b.hasAct && now < b.lastAct + t.tRC)
                fail("tRC violation", now);
            if (b.hasPre && now < b.lastPre + t.tRP)
                fail("tRP violation", now);
            if (now < b.blockedUntil)
                fail("ACT during tRFC", now);
            // Rank level: tRRD and tFAW.
            std::deque<Cycle> &actTimes = rankActTimes[rank];
            if (!actTimes.empty() && now < actTimes.back() + t.tRRD)
                fail("tRRD violation", now);
            if (actTimes.size() >= 4 &&
                now < actTimes[actTimes.size() - 4] + t.tFAW) {
                fail("tFAW violation", now);
            }
            actTimes.push_back(now);
            if (actTimes.size() > 8)
                actTimes.pop_front();
            b.open = true;
            b.row = row;
            b.lastAct = now;
            b.hasAct = true;
            break;
          }
          case dram::DramCmd::Rd:
          case dram::DramCmd::Wr: {
            if (!b.open)
                fail("column command to closed bank", now);
            if (b.hasAct && now < b.lastAct + t.tRCD)
                fail("tRCD violation", now);
            if (haveLastCol && now < lastColAt + t.tCCD &&
                lastColBank == bank) {
                fail("tCCD violation", now);
            }
            if (cmd == dram::DramCmd::Rd) {
                if (haveLastWr && now < lastWrAnyAt + t.writeToRead())
                    fail("write-to-read turnaround violation", now);
                b.lastRd = now;
                b.hasRd = true;
            } else {
                if (haveLastRd && now < lastRdAnyAt + t.readToWrite())
                    fail("read-to-write turnaround violation", now);
                b.lastWr = now;
                b.hasWr = true;
            }
            // Data bus: a burst switching ranks needs tRTRS of gap
            // after the previous burst drains.
            const Cycle burstStart =
                now + (cmd == dram::DramCmd::Rd ? t.tCL : t.tCWL);
            if (haveBurst && rank != lastBurstRank &&
                burstStart < lastBurstEnd + t.tRTRS) {
                fail("tRTRS violation", now);
            }
            lastBurstEnd = burstStart + t.tBL;
            lastBurstRank = rank;
            haveBurst = true;
            if (cmd == dram::DramCmd::Rd) {
                lastRdAnyAt = now;
                haveLastRd = true;
            } else {
                lastWrAnyAt = now;
                haveLastWr = true;
            }
            lastColAt = now;
            lastColBank = bank;
            haveLastCol = true;
            break;
          }
          case dram::DramCmd::Pre: {
            if (!b.open)
                fail("PRE to closed bank", now);
            if (b.hasAct && now < b.lastAct + t.tRAS)
                fail("tRAS violation", now);
            if (b.hasRd && now < b.lastRd + t.tRTP)
                fail("tRTP violation", now);
            if (b.hasWr && now < b.lastWr + t.tCWL + t.tBL + t.tWR)
                fail("tWR violation", now);
            b.open = false;
            b.lastPre = now;
            b.hasPre = true;
            break;
          }
          case dram::DramCmd::Ref: {
            // Per-rank refresh: only the reported rank's banks must be
            // closed and blocked for tRFC.
            for (unsigned i = rank * banksEach;
                 i < (rank + 1) * banksEach && i < bankState.size();
                 ++i) {
                BankShadow &bs = bankState[i];
                if (bs.open)
                    fail("REF with open bank", now);
                bs.blockedUntil = now + t.tRFC;
            }
            break;
          }
        }
    }

    const dram::DramTimings &t;
    std::vector<BankShadow> bankState;
    unsigned banksEach;
    std::vector<std::deque<Cycle>> rankActTimes;
    Cycle lastCmdAt = 0;
    Cycle lastBurstEnd = 0;
    unsigned lastBurstRank = 0;
    bool haveBurst = false;
    bool haveLastCmd = false;
    Cycle lastColAt = 0;
    unsigned lastColBank = 0;
    bool haveLastCol = false;
    Cycle lastRdAnyAt = 0, lastWrAnyAt = 0;
    bool haveLastRd = false, haveLastWr = false;

    std::vector<std::string> errors;
    std::uint64_t nCommands = 0;
};

} // namespace dstrange::testutil

#endif // DSTRANGE_TESTS_TIMING_CHECKER_H
