/**
 * @file
 * Tests for the memory controller subsystem: request queues, the three
 * intra-queue schedulers, the RNG-aware inter-queue policy, and the
 * memory controller's end-to-end request handling.
 */

#include <gtest/gtest.h>

#include <deque>

#include "dram/dram_channel.h"
#include "mem/bliss.h"
#include "mem/fr_fcfs.h"
#include "mem/memory_controller.h"
#include "mem/request_queue.h"
#include "mem/rng_aware.h"
#include "trng/trng_mechanism.h"

using namespace dstrange;
using namespace dstrange::mem;

namespace {

Request
makeReq(ReqType type, unsigned channel, unsigned bank, unsigned row,
        unsigned col, CoreId core, std::uint64_t seq)
{
    Request r;
    r.type = type;
    r.coord = dram::DramCoord{channel, bank, row, col};
    r.core = core;
    r.seq = seq;
    r.token = seq;
    return r;
}

} // namespace

TEST(RequestQueue, CapacityEnforced)
{
    RequestQueue q(2);
    EXPECT_TRUE(q.push(makeReq(ReqType::Read, 0, 0, 0, 0, 0, 0)));
    EXPECT_TRUE(q.push(makeReq(ReqType::Read, 0, 0, 0, 1, 0, 1)));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.push(makeReq(ReqType::Read, 0, 0, 0, 2, 0, 2)));
    q.erase(0);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.at(0).seq, 1u);
}

TEST(RequestQueue, NextCommandClassification)
{
    dram::DramTimings t;
    dram::DramGeometry g;
    dram::DramChannel chan(t, g);
    const Request closed = makeReq(ReqType::Read, 0, 0, 5, 0, 0, 0);
    EXPECT_EQ(nextCommandFor(closed, chan), dram::DramCmd::Act);

    chan.issue(dram::DramCmd::Act, 0, 0, 5);
    EXPECT_EQ(nextCommandFor(closed, chan), dram::DramCmd::Rd);
    EXPECT_TRUE(isRowHit(closed, chan));

    const Request wr = makeReq(ReqType::Write, 0, 0, 5, 1, 0, 1);
    EXPECT_EQ(nextCommandFor(wr, chan), dram::DramCmd::Wr);

    const Request conflict = makeReq(ReqType::Read, 0, 0, 9, 0, 0, 2);
    EXPECT_EQ(nextCommandFor(conflict, chan), dram::DramCmd::Pre);
    EXPECT_FALSE(isRowHit(conflict, chan));
}

class FrFcfsTest : public ::testing::Test
{
  protected:
    dram::DramTimings t;
    dram::DramGeometry g;
    dram::DramChannel chan{t, g};
    RequestQueue q{32};
};

TEST_F(FrFcfsTest, PrefersRowHitOverOlderMiss)
{
    FrFcfsScheduler sched(1, 8, 0);
    chan.issue(dram::DramCmd::Act, 0, 0, 5);
    // Older request conflicts; younger one hits the open row.
    q.push(makeReq(ReqType::Read, 0, 0, 9, 0, 0, 1));
    q.push(makeReq(ReqType::Read, 0, 0, 5, 3, 0, 2));
    const SchedContext ctx{q, chan, 0, t.tRCD};
    EXPECT_EQ(sched.pick(ctx), 1);
}

TEST_F(FrFcfsTest, FallsBackToOldestWhenNoHits)
{
    FrFcfsScheduler sched(1, 8, 0);
    q.push(makeReq(ReqType::Read, 0, 1, 9, 0, 0, 7));
    q.push(makeReq(ReqType::Read, 0, 2, 5, 0, 0, 8));
    const SchedContext ctx{q, chan, 0, 100};
    EXPECT_EQ(sched.pick(ctx), 0);
}

TEST_F(FrFcfsTest, ReturnsNoPickWhenNothingIssuable)
{
    FrFcfsScheduler sched(1, 8, 0);
    chan.issue(dram::DramCmd::Act, 0, 0, 5);
    q.push(makeReq(ReqType::Read, 0, 0, 5, 0, 0, 1));
    // Column command cannot issue before tRCD.
    const SchedContext ctx{q, chan, 0, 1};
    EXPECT_EQ(sched.pick(ctx), kNoPick);
}

TEST_F(FrFcfsTest, ColumnCapYieldsToConflictingRequest)
{
    FrFcfsScheduler sched(1, 8, /*cap=*/4);
    chan.issue(dram::DramCmd::Act, 0, 0, 5);
    // Saturate the streak accounting.
    for (int i = 0; i < 4; ++i)
        sched.onColumnIssued(makeReq(ReqType::Read, 0, 0, 5, i, 0, i), 0);
    // A hit to row 5 and a conflicting request to row 9 on the same bank.
    q.push(makeReq(ReqType::Read, 0, 0, 9, 0, 1, 10)); // older conflict
    q.push(makeReq(ReqType::Read, 0, 0, 5, 7, 0, 11)); // newer hit
    const SchedContext ctx{q, chan, 0, 100};
    // The cap forces the conflicting request (its PRE) to be chosen.
    EXPECT_EQ(sched.pick(ctx), 0);
}

TEST_F(FrFcfsTest, CapIgnoredWithoutWaitingConflict)
{
    FrFcfsScheduler sched(1, 8, /*cap=*/4);
    chan.issue(dram::DramCmd::Act, 0, 0, 5);
    for (int i = 0; i < 10; ++i)
        sched.onColumnIssued(makeReq(ReqType::Read, 0, 0, 5, i, 0, i), 0);
    q.push(makeReq(ReqType::Read, 0, 0, 5, 7, 0, 11)); // hit, no conflict
    const SchedContext ctx{q, chan, 0, 100};
    EXPECT_EQ(sched.pick(ctx), 0);
}

TEST(BlissTest, BlacklistsAfterConsecutiveServes)
{
    BlissScheduler sched(1, 2, /*threshold=*/4, /*clearing=*/10000);
    for (int i = 0; i < 3; ++i) {
        sched.onColumnIssued(makeReq(ReqType::Read, 0, 0, 1, i, 0, i), 0);
        EXPECT_FALSE(sched.isBlacklisted(0));
    }
    sched.onColumnIssued(makeReq(ReqType::Read, 0, 0, 1, 3, 0, 3), 0);
    EXPECT_TRUE(sched.isBlacklisted(0));
    EXPECT_FALSE(sched.isBlacklisted(1));
}

TEST(BlissTest, InterleavedServiceResetsStreak)
{
    BlissScheduler sched(1, 2, 4, 10000);
    for (int i = 0; i < 10; ++i) {
        sched.onColumnIssued(
            makeReq(ReqType::Read, 0, 0, 1, i, i % 2, i), 0);
    }
    EXPECT_FALSE(sched.isBlacklisted(0));
    EXPECT_FALSE(sched.isBlacklisted(1));
}

TEST(BlissTest, ClearingIntervalResetsBlacklist)
{
    BlissScheduler sched(1, 2, 4, 1000);
    for (int i = 0; i < 4; ++i)
        sched.onColumnIssued(makeReq(ReqType::Read, 0, 0, 1, i, 0, i), 0);
    EXPECT_TRUE(sched.isBlacklisted(0));
    sched.tick(1000);
    EXPECT_FALSE(sched.isBlacklisted(0));
}

TEST(BlissTest, PrefersNonBlacklistedOverRowHit)
{
    dram::DramTimings t;
    dram::DramGeometry g;
    dram::DramChannel chan(t, g);
    BlissScheduler sched(1, 2, 4, 10000);
    for (int i = 0; i < 4; ++i)
        sched.onColumnIssued(makeReq(ReqType::Read, 0, 0, 1, i, 0, i), 0);
    ASSERT_TRUE(sched.isBlacklisted(0));

    chan.issue(dram::DramCmd::Act, 0, 0, 5);
    RequestQueue q(32);
    q.push(makeReq(ReqType::Read, 0, 0, 5, 0, 0, 1)); // blacklisted hit
    q.push(makeReq(ReqType::Read, 0, 1, 9, 0, 1, 2)); // clean miss
    const SchedContext ctx{q, chan, 0, 100};
    EXPECT_EQ(sched.pick(ctx), 1);
}

class RngAwarePolicyTest : public ::testing::Test
{
  protected:
    RngAwarePolicyTest() : policy(1, 2, {.stallLimit = 100})
    {
        policy.markRngApp(1);
    }

    std::deque<RngJob>
    jobs(std::uint64_t seq)
    {
        return {RngJob{1, 0, seq, 0, 0.0}};
    }

    RngAwarePolicy policy;
    RequestQueue readQ{32};
};

TEST_F(RngAwarePolicyTest, EmptyQueuesChooseNone)
{
    const std::deque<RngJob> none;
    EXPECT_EQ(policy.choose(0, readQ, none), QueueChoice::None);
}

TEST_F(RngAwarePolicyTest, OnlyRngPendingChoosesRng)
{
    EXPECT_EQ(policy.choose(0, readQ, jobs(5)), QueueChoice::Rng);
}

TEST_F(RngAwarePolicyTest, EqualPriorityPrioritizesRng)
{
    // Section 5.2.1: with equal priorities, RNG requests are prioritized
    // to minimize RNG interference, regardless of relative age.
    readQ.push(makeReq(ReqType::Read, 0, 0, 0, 0, 0, 3)); // older read
    EXPECT_EQ(policy.choose(0, readQ, jobs(5)), QueueChoice::Rng);
}

TEST_F(RngAwarePolicyTest, EqualPriorityStallLimitProtectsReads)
{
    readQ.push(makeReq(ReqType::Read, 0, 0, 0, 0, 0, 3));
    const auto j = jobs(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(policy.choose(0, readQ, j), QueueChoice::Rng);
    // Starvation prevention: regular reads break through eventually.
    EXPECT_EQ(policy.choose(0, readQ, j), QueueChoice::Regular);
}

TEST_F(RngAwarePolicyTest, RngPrioritizedDrainsRngQueue)
{
    policy.setPriority(1, 5); // RNG app outranks core 0
    readQ.push(makeReq(ReqType::Read, 0, 0, 0, 0, 0, 1)); // much older
    EXPECT_EQ(policy.choose(0, readQ, jobs(50)), QueueChoice::Rng);
}

TEST_F(RngAwarePolicyTest, RngPrioritizedStallLimitBreaksThrough)
{
    policy.setPriority(1, 5);
    readQ.push(makeReq(ReqType::Read, 0, 0, 0, 0, 0, 1));
    const auto j = jobs(50);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(policy.choose(0, readQ, j), QueueChoice::Rng);
    // Stall limit reached: the deprioritized regular queue gets a turn.
    EXPECT_EQ(policy.choose(0, readQ, j), QueueChoice::Regular);
}

TEST_F(RngAwarePolicyTest, NonRngPrioritizedServesReads)
{
    policy.setPriority(0, 5);
    readQ.push(makeReq(ReqType::Read, 0, 0, 0, 0, 0, 9));
    EXPECT_EQ(policy.choose(0, readQ, jobs(5)), QueueChoice::Regular);
}

TEST_F(RngAwarePolicyTest, NonRngPrioritizedDrainsOlderRngForRngAppRead)
{
    policy.setPriority(0, 5);
    // The oldest regular read belongs to the RNG app (core 1) and is
    // younger than the oldest RNG request: drain the RNG queue first.
    readQ.push(makeReq(ReqType::Read, 0, 0, 0, 0, 1, 9));
    EXPECT_EQ(policy.choose(0, readQ, jobs(5)), QueueChoice::Rng);
}

TEST_F(RngAwarePolicyTest, NonRngPrioritizedStallLimitServesRng)
{
    policy.setPriority(0, 5);
    readQ.push(makeReq(ReqType::Read, 0, 0, 0, 0, 0, 1));
    const auto j = jobs(50);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(policy.choose(0, readQ, j), QueueChoice::Regular);
    EXPECT_EQ(policy.choose(0, readQ, j), QueueChoice::Rng);
}

TEST_F(RngAwarePolicyTest, NoteServedResetsStallCounters)
{
    policy.setPriority(1, 5);
    readQ.push(makeReq(ReqType::Read, 0, 0, 0, 0, 0, 1));
    const auto j = jobs(50);
    for (int i = 0; i < 60; ++i)
        policy.choose(0, readQ, j);
    policy.noteServed(0, QueueChoice::Regular);
    // Counter reset: another full stall-limit run before breakthrough.
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(policy.choose(0, readQ, j), QueueChoice::Rng);
    EXPECT_EQ(policy.choose(0, readQ, j), QueueChoice::Regular);
}

// ---------------------------------------------------------------------
// MemoryController end-to-end behaviour.
// ---------------------------------------------------------------------

/** The RNG-oblivious, bufferless controller (McConfig{} is the full
 *  DR-STRaNGe design). */
McConfig
obliviousConfig()
{
    McConfig cfg;
    cfg.rngAwareQueueing = false;
    cfg.buffering = false;
    return cfg;
}

class MemoryControllerTest : public ::testing::Test
{
  protected:
    void
    build(McConfig cfg)
    {
        mc = std::make_unique<MemoryController>(cfg, 2);
        mc->setCompletionCallback(
            [this](CoreId core, std::uint64_t token, ReqType type,
                   ServePath) { completions.push_back({core, token, type}); });
    }

    void
    tickN(Cycle n)
    {
        for (Cycle i = 0; i < n; ++i)
            mc->tick(now++);
    }

    struct Completion
    {
        CoreId core;
        std::uint64_t token;
        ReqType type;
    };

    dram::DramTimings timings;
    std::unique_ptr<MemoryController> mc;
    std::vector<Completion> completions;
    Cycle now = 0;
};

TEST_F(MemoryControllerTest, ReadCompletesWithPlausibleLatency)
{
    build(obliviousConfig());
    Request req;
    req.type = ReqType::Read;
    req.addr = 0x4000;
    req.core = 0;
    req.token = 42;
    ASSERT_TRUE(mc->enqueue(req, now));
    tickN(60);
    ASSERT_EQ(completions.size(), 1u);
    EXPECT_EQ(completions[0].token, 42u);
    EXPECT_EQ(completions[0].type, ReqType::Read);
    // ACT + tRCD + tCL + tBL plus scheduling overhead.
    EXPECT_GE(mc->stats().sumReadLatency,
              timings.tRCD + timings.tCL + timings.tBL);
    EXPECT_LE(mc->stats().sumReadLatency, 60u);
}

TEST_F(MemoryControllerTest, WritesArePostedAndDrained)
{
    build(obliviousConfig());
    for (unsigned i = 0; i < 4; ++i) {
        Request req;
        req.type = ReqType::Write;
        req.addr = 0x10000 + i * 64 * 4; // same channel, streaming
        req.core = 0;
        req.token = i;
        ASSERT_TRUE(mc->enqueue(req, now));
    }
    EXPECT_EQ(mc->stats().writeRequests, 4u);
    tickN(300);
    EXPECT_FALSE(mc->busy());
    // Writes never produce completion callbacks.
    EXPECT_TRUE(completions.empty());
}

TEST_F(MemoryControllerTest, RngObliviousGeneratesOnDemand)
{
    build(obliviousConfig());
    Request req;
    req.type = ReqType::Rng;
    req.core = 1;
    req.token = 7;
    ASSERT_TRUE(mc->enqueue(req, now));
    EXPECT_EQ(mc->pendingRngJobs(), 1u);
    tickN(100);
    ASSERT_EQ(completions.size(), 1u);
    EXPECT_EQ(completions[0].type, ReqType::Rng);
    EXPECT_EQ(mc->stats().rngJobsCompleted, 1u);
    EXPECT_GT(mc->rngOccupiedCycles(), 0u);
}

TEST_F(MemoryControllerTest, RngObliviousStallsRegularReadsDuringRng)
{
    build(obliviousConfig());
    Request rng;
    rng.type = ReqType::Rng;
    rng.core = 1;
    rng.token = 1;
    ASSERT_TRUE(mc->enqueue(rng, now));
    Request rd;
    rd.type = ReqType::Read;
    rd.addr = 0;
    rd.core = 0;
    rd.token = 2;
    ASSERT_TRUE(mc->enqueue(rd, now));
    tickN(200);
    ASSERT_EQ(completions.size(), 2u);
    // The RNG completion precedes the read: regular traffic stalled.
    EXPECT_EQ(completions[0].type, ReqType::Rng);
    EXPECT_EQ(completions[1].type, ReqType::Read);
}

TEST_F(MemoryControllerTest, BufferServesWhenFilled)
{
    McConfig cfg;
    cfg.rngAwareQueueing = true;
    cfg.bufferEntries = 16;
    cfg.fillPolicy = "engine";
    cfg.predictor = "none"; // fill on every idle cycle
    build(cfg);

    // Let the idle system fill its buffer.
    tickN(2000);
    ASSERT_NE(mc->buffer(), nullptr);
    EXPECT_TRUE(mc->buffer()->canServe64(1));

    Request req;
    req.type = ReqType::Rng;
    req.core = 1;
    req.token = 9;
    ASSERT_TRUE(mc->enqueue(req, now));
    tickN(kBufferServeLatency + 1);
    ASSERT_EQ(completions.size(), 1u);
    EXPECT_EQ(mc->stats().rngServedFromBuffer, 1u);
    EXPECT_DOUBLE_EQ(mc->stats().bufferServeRate(), 1.0);
}

TEST_F(MemoryControllerTest, BufferFillStopsWhenFull)
{
    McConfig cfg;
    cfg.rngAwareQueueing = true;
    cfg.bufferEntries = 4;
    cfg.fillPolicy = "engine";
    cfg.predictor = "none";
    build(cfg);
    tickN(5000);
    EXPECT_GE(mc->buffer()->levelBits(), 4 * 64.0 - 8.0);
    const Cycle occupied = mc->rngOccupiedCycles();
    tickN(1000);
    // Engines must not keep burning cycles once the buffer is full.
    EXPECT_LE(mc->rngOccupiedCycles() - occupied, 100u);
}

TEST_F(MemoryControllerTest, GreedyOracleFillsWithoutEngineCost)
{
    McConfig cfg;
    cfg.rngAwareQueueing = true;
    cfg.bufferEntries = 16;
    cfg.fillPolicy = "greedy-oracle";
    build(cfg);
    tickN(3000);
    EXPECT_GT(mc->buffer()->levelBits(), 0.0);
    EXPECT_EQ(mc->rngOccupiedCycles(), 0u);
}

TEST_F(MemoryControllerTest, StagingServesQuacLeftovers)
{
    McConfig cfg = obliviousConfig();
    cfg.mechanism = trng::TrngMechanism::quacTrng();
    mc = std::make_unique<MemoryController>(cfg, 2);
    std::vector<Completion> done;
    mc->setCompletionCallback(
        [&](CoreId core, std::uint64_t token, ReqType type, ServePath) {
            done.push_back({core, token, type});
        });

    Request req;
    req.type = ReqType::Rng;
    req.core = 1;
    req.token = 0;
    ASSERT_TRUE(mc->enqueue(req, now));
    for (Cycle i = 0; i < 400; ++i)
        mc->tick(now++);
    ASSERT_EQ(done.size(), 1u);
    // One 512-bit QUAC round leaves 448 bits staged.
    EXPECT_GE(mc->stagingLevel(), 448.0 - 1.0);

    // The next request is served from staging, quickly.
    req.token = 1;
    ASSERT_TRUE(mc->enqueue(req, now));
    for (Cycle i = 0; i < kBufferServeLatency + 2; ++i)
        mc->tick(now++);
    EXPECT_EQ(done.size(), 2u);
    EXPECT_EQ(mc->stats().rngServedFromStaging, 1u);
}

TEST_F(MemoryControllerTest, RngQueueCapacityBackpressure)
{
    build(obliviousConfig());
    Request req;
    req.type = ReqType::Rng;
    req.core = 1;
    // Do not tick: jobs accumulate up to the queue's capacity.
    for (std::uint64_t token = 0; token < kRngQueueCap; ++token) {
        req.token = token;
        EXPECT_TRUE(mc->enqueue(req, now));
    }
    req.token = kRngQueueCap;
    EXPECT_FALSE(mc->enqueue(req, now));
}

TEST_F(MemoryControllerTest, AcceptsRngPredictsEnqueueOutcome)
{
    build(obliviousConfig());
    Request req;
    req.type = ReqType::Rng;
    req.core = 1;
    for (std::uint64_t token = 0; token < kRngQueueCap; ++token) {
        EXPECT_TRUE(mc->acceptsRng(req.core));
        req.token = token;
        EXPECT_TRUE(mc->enqueue(req, now));
    }
    // Full queue: every retry is a no-op until the front job completes.
    EXPECT_FALSE(mc->acceptsRng(req.core));
    while (completions.empty()) {
        EXPECT_FALSE(mc->acceptsRng(req.core));
        tickN(1);
    }
    EXPECT_TRUE(mc->acceptsRng(req.core));
    req.token = kRngQueueCap;
    EXPECT_TRUE(mc->enqueue(req, now));
}

TEST_F(MemoryControllerTest, ReadQueueFullRejectsRequests)
{
    build(obliviousConfig());
    Request req;
    req.type = ReqType::Read;
    req.core = 0;
    // All to channel 0 (line addresses multiple of 4).
    for (unsigned i = 0; i < kReadQueueCap; ++i) {
        req.addr = Addr(4) * i * 64;
        EXPECT_TRUE(mc->enqueue(req, now));
    }
    req.addr = Addr(4) * kReadQueueCap * 64;
    EXPECT_FALSE(mc->enqueue(req, now));
    EXPECT_EQ(mc->readQueueSize(0), kReadQueueCap);
}

TEST_F(MemoryControllerTest, IdlePeriodsAreRecorded)
{
    build(obliviousConfig());
    tickN(100);
    Request req;
    req.type = ReqType::Read;
    req.addr = 0;
    req.core = 0;
    req.token = 0;
    ASSERT_TRUE(mc->enqueue(req, now));
    ASSERT_FALSE(mc->idlePeriods(0).empty());
    EXPECT_GE(mc->idlePeriods(0).back(), 100u);
}

TEST_F(MemoryControllerTest, PredictorStatsExposedOnlyWithPredictor)
{
    build(obliviousConfig());
    EXPECT_FALSE(mc->predictorStats().has_value());

    McConfig cfg;
    cfg.rngAwareQueueing = true;
    cfg.bufferEntries = 16;
    cfg.fillPolicy = "engine";
    cfg.predictor = "simple";
    build(cfg);
    EXPECT_TRUE(mc->predictorStats().has_value());
}

TEST_F(MemoryControllerTest, WriteDrainRespectsWatermarks)
{
    build(obliviousConfig());

    // Interleave reads and writes to one channel; reads must keep
    // flowing while writes sit below the high watermark.
    for (unsigned i = 0; i + 1 < kWriteDrainHigh; ++i) {
        Request wr;
        wr.type = ReqType::Write;
        wr.addr = (4 * i) * 64 * 4; // channel 0, streaming
        wr.core = 0;
        wr.token = 100 + i;
        ASSERT_TRUE(mc->enqueue(wr, now));
    }
    Request rd;
    rd.type = ReqType::Read;
    rd.addr = 64 * 4 * 1000;
    rd.core = 0;
    rd.token = 1;
    ASSERT_TRUE(mc->enqueue(rd, now));

    tickN(40);
    // The read completed even though writes were queued first.
    ASSERT_EQ(completions.size(), 1u);
    EXPECT_EQ(completions[0].type, ReqType::Read);

    // With no read waiting, the writes drain opportunistically.
    tickN(600);
    EXPECT_EQ(mc->writeQueueSize(0), 0u);

    // At the high watermark the drain starts even though a read waits,
    // and it stops at the low watermark to serve that read.
    for (unsigned i = 0; i < kWriteDrainHigh; ++i) {
        Request wr;
        wr.type = ReqType::Write;
        wr.addr = (4 * i) * 64 * 4;
        wr.core = 0;
        wr.token = 200 + i;
        ASSERT_TRUE(mc->enqueue(wr, now));
    }
    rd.token = 2;
    ASSERT_TRUE(mc->enqueue(rd, now));
    for (Cycle i = 0; i < 2000 && mc->readQueueSize(0) > 0; ++i)
        mc->tick(now++);
    ASSERT_EQ(mc->readQueueSize(0), 0u);
    EXPECT_EQ(mc->writeQueueSize(0), kWriteDrainLow);
    tickN(600);
    EXPECT_EQ(mc->writeQueueSize(0), 0u);
}

TEST_F(MemoryControllerTest, RequestsRouteToDecodedChannel)
{
    build(obliviousConfig());
    // Line-interleaved mapping: line i -> channel i % 4.
    for (unsigned i = 0; i < 8; ++i) {
        Request rd;
        rd.type = ReqType::Read;
        rd.addr = static_cast<Addr>(i) * 64;
        rd.core = 0;
        rd.token = i;
        ASSERT_TRUE(mc->enqueue(rd, now));
    }
    for (unsigned ch = 0; ch < 4; ++ch)
        EXPECT_EQ(mc->readQueueSize(ch), 2u);
}

TEST_F(MemoryControllerTest, MultipleRngJobsCompleteInOrder)
{
    build(obliviousConfig());
    for (unsigned i = 0; i < 4; ++i) {
        Request req;
        req.type = ReqType::Rng;
        req.core = 1;
        req.token = i;
        ASSERT_TRUE(mc->enqueue(req, now));
    }
    tickN(600);
    ASSERT_EQ(completions.size(), 4u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(completions[i].token, i);
}

TEST_F(MemoryControllerTest, RowHitsCompleteFasterThanConflicts)
{
    build(obliviousConfig());
    // Two reads to the same row (hit after activation) vs two reads to
    // conflicting rows in one bank.
    auto run_pair = [&](Addr a, Addr b) {
        completions.clear();
        Request r1;
        r1.type = ReqType::Read;
        r1.addr = a;
        r1.core = 0;
        r1.token = 1;
        Request r2 = r1;
        r2.addr = b;
        r2.token = 2;
        const Cycle start = now;
        EXPECT_TRUE(mc->enqueue(r1, now));
        EXPECT_TRUE(mc->enqueue(r2, now));
        while (completions.size() < 2)
            mc->tick(now++);
        return now - start;
    };
    // Same row: consecutive columns on channel 0 (stride 4 lines).
    const Cycle hit_time = run_pair(0, 4 * 64);
    // Row conflict: same bank, different row. Row stride on channel 0:
    // rows advance every colsPerRow*banks*channels lines.
    const Addr row_stride = Addr(128) * 8 * 4 * 64;
    const Cycle conflict_time = run_pair(0, row_stride);
    EXPECT_LT(hit_time, conflict_time);
}
