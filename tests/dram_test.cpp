/**
 * @file
 * Unit and property tests for the DRAM substrate: timing parameters,
 * address mapping, per-bank state machines, and the channel model's
 * rank/bus/refresh constraints.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dram/address_mapper.h"
#include "dram/dram_channel.h"
#include "dram/dram_timings.h"

using namespace dstrange;
using namespace dstrange::dram;

namespace {

DramTimings
timings()
{
    return DramTimings{};
}

DramGeometry
geometry()
{
    return DramGeometry{};
}

/** The default ("row-bank-col-ch") mapping at geometry(). */
AddressMapping
defaultMapping()
{
    return AddressMapping(geometry());
}

} // namespace

TEST(DramTimings, DefaultsAreConsistent)
{
    EXPECT_TRUE(timingsAreConsistent(timings()));
}

TEST(DramTimings, InconsistentSetsAreRejected)
{
    DramTimings t;
    t.tRC = t.tRAS; // tRC < tRAS + tRP
    EXPECT_FALSE(timingsAreConsistent(t));

    DramTimings t2;
    t2.tREFI = t2.tRFC;
    EXPECT_FALSE(timingsAreConsistent(t2));
}

TEST(DramTimings, TurnaroundsArePositive)
{
    const DramTimings t;
    EXPECT_GT(t.readToWrite(), 0u);
    EXPECT_GT(t.writeToRead(), 0u);
}

TEST(DefaultMapping, DecodeEncodeRoundTrip)
{
    const auto mapper = defaultMapping();
    Xoshiro256ss gen(3);
    for (int i = 0; i < 10000; ++i) {
        const Addr addr =
            gen.nextBelow(geometry().capacityBytes() / kLineBytes) *
            kLineBytes;
        const DramCoord coord = mapper.decode(addr);
        EXPECT_EQ(mapper.encode(coord), addr);
    }
}

TEST(DefaultMapping, ConsecutiveLinesInterleaveChannels)
{
    const auto mapper = defaultMapping();
    for (unsigned i = 0; i < 16; ++i) {
        const DramCoord coord = mapper.decode(i * kLineBytes);
        EXPECT_EQ(coord.channel, i % geometry().channels);
    }
}

TEST(DefaultMapping, SameChannelStrideKeepsRow)
{
    // Lines 4 apart map to the same channel; within a row's span they
    // share the row (this is what makes streaming row-friendly).
    const auto mapper = defaultMapping();
    const DramCoord a = mapper.decode(0);
    const DramCoord b = mapper.decode(4 * kLineBytes);
    EXPECT_EQ(a.channel, b.channel);
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(a.row, b.row);
    EXPECT_EQ(b.col, a.col + 1);
}

TEST(DefaultMapping, CoordFieldsWithinBounds)
{
    const auto mapper = defaultMapping();
    Xoshiro256ss gen(5);
    for (int i = 0; i < 10000; ++i) {
        const Addr addr = gen.next() % geometry().capacityBytes();
        const DramCoord c = mapper.decode(addr);
        EXPECT_LT(c.channel, geometry().channels);
        EXPECT_LT(c.bank, geometry().banksPerRank);
        EXPECT_LT(c.row, geometry().rowsPerBank);
        EXPECT_LT(c.col, geometry().colsPerRow());
    }
}

TEST(Bank, ActivateThenReadRespectsTrcd)
{
    const DramTimings t;
    DramChannel chan(t, DramGeometry{});
    EXPECT_EQ(chan.openRow(0), kNoOpenRow);
    EXPECT_TRUE(chan.canIssue(DramCmd::Act, 0, 0));
    chan.issue(DramCmd::Act, 0, 0, 7);
    EXPECT_EQ(chan.openRow(0), 7);
    EXPECT_FALSE(chan.canIssue(DramCmd::Rd, 0, t.tRCD - 1));
    EXPECT_TRUE(chan.canIssue(DramCmd::Rd, 0, t.tRCD));
}

TEST(Bank, PrechargeRespectsTras)
{
    const DramTimings t;
    DramChannel chan(t, DramGeometry{});
    chan.issue(DramCmd::Act, 0, 0, 1);
    EXPECT_FALSE(chan.canIssue(DramCmd::Pre, 0, t.tRAS - 1));
    EXPECT_TRUE(chan.canIssue(DramCmd::Pre, 0, t.tRAS));
    chan.issue(DramCmd::Pre, 0, t.tRAS);
    EXPECT_EQ(chan.openRow(0), kNoOpenRow);
    // Next ACT respects both tRP (after PRE) and tRC (after ACT).
    EXPECT_FALSE(chan.canIssue(DramCmd::Act, 0, t.tRAS + t.tRP - 1));
    EXPECT_TRUE(chan.canIssue(DramCmd::Act, 0, t.tRC));
}

TEST(Bank, WriteRecoveryDelaysPrecharge)
{
    const DramTimings t;
    DramChannel chan(t, DramGeometry{});
    chan.issue(DramCmd::Act, 0, 0, 1);
    const Cycle wr_at = t.tRCD;
    chan.issue(DramCmd::Wr, 0, wr_at);
    const Cycle pre_ready = wr_at + t.tCWL + t.tBL + t.tWR;
    EXPECT_FALSE(chan.canIssue(DramCmd::Pre, 0, pre_ready - 1));
    EXPECT_TRUE(chan.canIssue(DramCmd::Pre, 0, pre_ready));
}

TEST(Bank, ReadToPrechargeRespectsTrtp)
{
    const DramTimings t;
    DramChannel chan(t, DramGeometry{});
    chan.issue(DramCmd::Act, 0, 0, 1);
    const Cycle rd_at = t.tRAS; // late read so tRAS is already satisfied
    chan.issue(DramCmd::Rd, 0, rd_at);
    EXPECT_FALSE(chan.canIssue(DramCmd::Pre, 0, rd_at + t.tRTP - 1));
    EXPECT_TRUE(chan.canIssue(DramCmd::Pre, 0, rd_at + t.tRTP));
}

TEST(Bank, ConsecutiveColumnCommandsRespectTccd)
{
    const DramTimings t;
    DramChannel chan(t, DramGeometry{});
    chan.issue(DramCmd::Act, 0, 0, 1);
    chan.issue(DramCmd::Rd, 0, t.tRCD);
    EXPECT_FALSE(chan.canIssue(DramCmd::Rd, 0, t.tRCD + t.tCCD - 1));
    EXPECT_TRUE(chan.canIssue(DramCmd::Rd, 0, t.tRCD + t.tCCD));
}

class DramChannelTest : public ::testing::Test
{
  protected:
    DramChannelTest() : chan(t, g) {}

    DramTimings t;
    DramGeometry g;
    DramChannel chan{t, g};
};

TEST_F(DramChannelTest, CommandBusSerializesCommands)
{
    ASSERT_TRUE(chan.canIssue(DramCmd::Act, 0, 10));
    chan.issue(DramCmd::Act, 0, 10, 1);
    // A second command in the same cycle is blocked by the command bus,
    // even to a different bank.
    EXPECT_FALSE(chan.canIssue(DramCmd::Act, 1, 10));
    EXPECT_TRUE(chan.canIssue(DramCmd::Act, 1, 10 + t.tRRD));
}

TEST_F(DramChannelTest, TrrdSeparatesActivates)
{
    chan.issue(DramCmd::Act, 0, 0, 1);
    EXPECT_FALSE(chan.canIssue(DramCmd::Act, 1, t.tRRD - 1));
    EXPECT_TRUE(chan.canIssue(DramCmd::Act, 1, t.tRRD));
}

TEST_F(DramChannelTest, TfawLimitsActivateBurst)
{
    // Issue four ACTs as fast as tRRD allows; the fifth must wait for
    // the four-activate window.
    Cycle now = 0;
    for (unsigned b = 0; b < 4; ++b) {
        EXPECT_TRUE(chan.canIssue(DramCmd::Act, b, now));
        chan.issue(DramCmd::Act, b, now, 1);
        now += t.tRRD;
    }
    // First ACT was at cycle 0, so bank 4's ACT must wait until tFAW.
    EXPECT_FALSE(chan.canIssue(DramCmd::Act, 4, now));
    EXPECT_TRUE(chan.canIssue(DramCmd::Act, 4, t.tFAW));
}

TEST_F(DramChannelTest, ReadReturnsDataBurstCompletion)
{
    chan.issue(DramCmd::Act, 0, 0, 1);
    const Cycle rd_at = t.tRCD;
    ASSERT_TRUE(chan.canIssue(DramCmd::Rd, 0, rd_at));
    const Cycle done = chan.issue(DramCmd::Rd, 0, rd_at);
    EXPECT_EQ(done, rd_at + t.tCL + t.tBL);
}

TEST_F(DramChannelTest, ReadWriteTurnaroundEnforced)
{
    chan.issue(DramCmd::Act, 0, 0, 1);
    const Cycle rd_at = t.tRCD;
    chan.issue(DramCmd::Rd, 0, rd_at);
    // A write cannot follow immediately: bus turnaround.
    const Cycle wr_min = rd_at + t.readToWrite();
    EXPECT_FALSE(chan.canIssue(DramCmd::Wr, 0, wr_min - 1));
    EXPECT_TRUE(chan.canIssue(DramCmd::Wr, 0, wr_min));
}

TEST(DramChannelTurnaround, SameBankColumnGapHonoursTccd)
{
    DramTimings t;
    t.tCCD = 20; // Longer than the read-to-write turnaround.
    DramChannel chan(t, DramGeometry{});
    chan.issue(DramCmd::Act, 0, 0, 1);
    chan.issue(DramCmd::Act, 1, t.tRRD, 1);
    const Cycle rd_at = t.tRRD + t.tRCD;
    chan.issue(DramCmd::Rd, 0, rd_at);
    // Another bank waits only for the turnaround; the same bank for tCCD.
    EXPECT_TRUE(chan.canIssue(DramCmd::Wr, 1, rd_at + t.readToWrite()));
    EXPECT_FALSE(chan.canIssue(DramCmd::Wr, 0, rd_at + t.tCCD - 1));
    EXPECT_TRUE(chan.canIssue(DramCmd::Wr, 0, rd_at + t.tCCD));
}

TEST(DramChannelTurnaround, RngOccupancyKeepsTheRankTurnaround)
{
    DramTimings t;
    t.tRTRS = 20; // Longer than tCL: the turnaround outlasts the fence.
    DramGeometry g;
    g.ranksPerChannel = 2;
    DramChannel chan(t, g);
    const unsigned other = g.banksPerRank; // First bank of rank 1.
    chan.issue(DramCmd::Act, 0, 0, 1);
    chan.issue(DramCmd::Act, other, 1, 1);
    chan.issue(DramCmd::Rd, 0, t.tRCD);
    // RNG mode holds the data bus until `until`; the last burst's rank
    // may read right after, another rank owes tRTRS after the bus frees.
    const Cycle until = 100;
    chan.occupyForRng(until);
    EXPECT_TRUE(chan.canIssue(DramCmd::Rd, 0, until));
    EXPECT_FALSE(
        chan.canIssue(DramCmd::Rd, other, until + t.tRTRS - t.tCL - 1));
    EXPECT_TRUE(chan.canIssue(DramCmd::Rd, other, until + t.tRTRS - t.tCL));
}

TEST_F(DramChannelTest, RefreshBecomesDueAndBlocksTraffic)
{
    // Before tREFI nothing special happens.
    for (Cycle c = 0; c < t.tREFI; ++c) {
        chan.tickRefresh(c);
        ASSERT_FALSE(chan.refreshBusy(c));
    }
    // The rank refreshes (all banks closed already); REF occupies tRFC.
    chan.tickRefresh(t.tREFI);
    EXPECT_TRUE(chan.refreshBusy(t.tREFI + 1));
    EXPECT_FALSE(chan.canIssue(DramCmd::Act, 0, t.tREFI + 1));
    EXPECT_TRUE(chan.refreshBusy(t.tREFI + t.tRFC - 1));
    chan.tickRefresh(t.tREFI + t.tRFC);
    EXPECT_FALSE(chan.refreshBusy(t.tREFI + t.tRFC));
    EXPECT_TRUE(chan.canIssue(DramCmd::Act, 0, t.tREFI + t.tRFC));
    EXPECT_EQ(chan.energyCounters().nRef, 1u);
}

TEST_F(DramChannelTest, RefreshPrechargesOpenBanksFirst)
{
    // Open a bank shortly before the refresh interval elapses.
    const Cycle act_at = t.tREFI - t.tRAS - 2;
    chan.issue(DramCmd::Act, 0, act_at, 5);
    EXPECT_EQ(chan.openBankCount(), 1u);
    Cycle c = t.tREFI;
    // Let the refresh engine precharge and refresh.
    for (; c < t.tREFI + 4 * t.tRP + t.tRFC + 8; ++c)
        chan.tickRefresh(c);
    EXPECT_EQ(chan.openBankCount(), 0u);
    EXPECT_EQ(chan.energyCounters().nRef, 1u);
    EXPECT_GE(chan.energyCounters().nPre, 1u);
}

TEST_F(DramChannelTest, RngOccupancyBlocksIssueButKeepsRows)
{
    chan.issue(DramCmd::Act, 0, 0, 9);
    chan.occupyForRng(50);
    EXPECT_TRUE(chan.rngBusy(49));
    EXPECT_FALSE(chan.rngBusy(50));
    EXPECT_FALSE(chan.canIssue(DramCmd::Rd, 0, 20));
    // Application row-buffer contents survive RNG mode.
    EXPECT_EQ(chan.openRow(0), 9);
    EXPECT_TRUE(chan.canIssue(DramCmd::Rd, 0, 50));
}

TEST_F(DramChannelTest, SampleStateSplitsResidency)
{
    // All banks closed: precharged standby.
    chan.sampleState(0);
    EXPECT_EQ(chan.energyCounters().cyclesPrecharged, 1u);
    chan.issue(DramCmd::Act, 0, 1, 2);
    chan.sampleState(2);
    EXPECT_EQ(chan.energyCounters().cyclesActive, 1u);
    // RNG occupancy counts as active.
    chan.occupyForRng(100);
    chan.sampleState(50);
    EXPECT_EQ(chan.energyCounters().cyclesActive, 2u);
}

TEST_F(DramChannelTest, EnergyCountersTrackCommands)
{
    chan.issue(DramCmd::Act, 0, 0, 1);
    chan.issue(DramCmd::Rd, 0, t.tRCD);
    chan.issue(DramCmd::Pre, 0, t.tRAS);
    const auto &c = chan.energyCounters();
    EXPECT_EQ(c.nAct, 1u);
    EXPECT_EQ(c.nRd, 1u);
    EXPECT_EQ(c.nPre, 1u);
    EXPECT_EQ(c.nWr, 0u);
}

/**
 * Property: a random but legality-checked command driver never corrupts
 * channel state — open-bank count matches per-bank state, and commands
 * the model accepts never violate tFAW (tracked independently).
 */
TEST(DramChannelProperty, RandomLegalTrafficKeepsInvariants)
{
    const DramTimings t;
    const DramGeometry g;
    DramChannel chan(t, g);
    Xoshiro256ss gen(99);
    std::vector<Cycle> act_times;

    for (Cycle now = 0; now < 20000; ++now) {
        chan.tickRefresh(now);
        chan.sampleState(now);
        const unsigned bank = static_cast<unsigned>(gen.nextBelow(8));
        const DramCmd cmd = static_cast<DramCmd>(gen.nextBelow(4));
        if (chan.canIssue(cmd, bank, now)) {
            if (cmd == DramCmd::Act) {
                chan.issue(cmd, bank, now,
                           static_cast<std::int64_t>(gen.nextBelow(64)));
                act_times.push_back(now);
            } else {
                chan.issue(cmd, bank, now);
            }
        }
        unsigned open = 0;
        for (unsigned b = 0; b < chan.numBanks(); ++b)
            open += chan.openRow(b) != kNoOpenRow;
        ASSERT_EQ(open, chan.openBankCount());
    }

    // Independently check the four-activate window over the whole trace.
    for (std::size_t i = 4; i < act_times.size(); ++i)
        ASSERT_GE(act_times[i], act_times[i - 4] + t.tFAW);

    // The channel made progress.
    EXPECT_GT(act_times.size(), 10u);
    EXPECT_GT(chan.energyCounters().nRd + chan.energyCounters().nWr, 10u);
}
