/**
 * @file
 * Tests for the trace-driven core model: retire width, window capacity,
 * memory/RNG stall behaviour, and statistics freezing at the budget.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cpu/core.h"
#include "mem/memory_controller.h"
#include "trng/trng_mechanism.h"

using namespace dstrange;
using namespace dstrange::cpu;

namespace {

/** Scripted trace for direct control over the op stream. */
class ScriptedTrace : public TraceSource
{
  public:
    explicit ScriptedTrace(std::vector<TraceOp> ops, TraceOp filler)
        : script(std::move(ops)), filler(filler)
    {
    }

    TraceOp
    next() override
    {
        if (pos < script.size())
            return script[pos++];
        return filler;
    }

    const std::string &name() const override { return traceName; }

  private:
    std::vector<TraceOp> script;
    TraceOp filler;
    std::size_t pos = 0;
    std::string traceName = "scripted";
};

TraceOp
op(std::uint64_t gap, mem::ReqType type, Addr addr)
{
    return TraceOp{gap, type, addr};
}

class CoreTest : public ::testing::Test
{
  protected:
    void
    build(std::vector<TraceOp> ops, TraceOp filler,
          std::uint64_t budget = 10000)
    {
        // The RNG-oblivious, bufferless controller.
        mem::McConfig mc_cfg;
        mc_cfg.rngAwareQueueing = false;
        mc_cfg.buffering = false;
        mc = std::make_unique<mem::MemoryController>(mc_cfg, 1);
        trace = std::make_unique<ScriptedTrace>(std::move(ops), filler);
        Core::Config cfg;
        cfg.instrBudget = budget;
        core = std::make_unique<Core>(0, cfg, *trace, *mc);
        mc->setCompletionCallback(
            [this](CoreId, std::uint64_t token, mem::ReqType,
                   mem::ServePath) { core->onCompletion(token); });
    }

    void
    run(Cycle bus_cycles)
    {
        for (Cycle c = 0; c < bus_cycles && !core->finished(); ++c) {
            mc->tick(now);
            core->tickBusCycle(now);
            ++now;
        }
    }

    std::unique_ptr<mem::MemoryController> mc;
    std::unique_ptr<ScriptedTrace> trace;
    std::unique_ptr<Core> core;
    Cycle now = 0;
};

} // namespace

TEST_F(CoreTest, ComputeOnlyRetiresAtIssueWidth)
{
    // Pure compute: budget/width CPU cycles, with no memory stall.
    build({}, op(1'000'000, mem::ReqType::Read, 0), /*budget=*/9000);
    run(5000);
    ASSERT_TRUE(core->finished());
    const CoreStats &s = core->stats();
    // 9000 instructions at 3-wide: ~3000 CPU cycles (+pipeline slack).
    EXPECT_NEAR(static_cast<double>(s.finishCycle), 3000.0, 10.0);
    EXPECT_EQ(s.memStallCycles, 0u);
    EXPECT_NEAR(s.ipc(), 3.0, 0.05);
}

TEST_F(CoreTest, SingleReadBlocksRetirementUntilCompletion)
{
    // One read followed by compute; the read stalls the window head.
    build({op(0, mem::ReqType::Read, 0x1000)},
          op(1'000'000, mem::ReqType::Read, 0), 3000);
    run(5000);
    ASSERT_TRUE(core->finished());
    EXPECT_GT(core->stats().memStallCycles, 0u);
    EXPECT_EQ(core->stats().reads, 1u);
    EXPECT_EQ(core->stats().rngStallCycles, 0u);
}

TEST_F(CoreTest, RngRequestBlocksIssueAndCountsRngStall)
{
    build({op(0, mem::ReqType::Rng, 0)},
          op(1'000'000, mem::ReqType::Read, 0), 3000);
    run(5000);
    ASSERT_TRUE(core->finished());
    EXPECT_EQ(core->stats().rngRequests, 1u);
    EXPECT_GT(core->stats().rngStallCycles, 0u);
    EXPECT_GE(core->stats().memStallCycles,
              core->stats().rngStallCycles);
}

TEST_F(CoreTest, WritesDoNotBlockRetirement)
{
    std::vector<TraceOp> ops;
    for (int i = 0; i < 8; ++i)
        ops.push_back(op(10, mem::ReqType::Write, 0x2000 + i * 64));
    build(std::move(ops), op(1'000'000, mem::ReqType::Read, 0), 2000);
    run(5000);
    ASSERT_TRUE(core->finished());
    EXPECT_EQ(core->stats().writes, 8u);
    EXPECT_EQ(core->stats().memStallCycles, 0u);
}

TEST_F(CoreTest, WindowLimitsOutstandingWork)
{
    // A long dependent chain of reads to distinct rows: the window (128)
    // plus queue capacity bounds the outstanding reads at any time.
    std::vector<TraceOp> ops;
    for (int i = 0; i < 600; ++i)
        ops.push_back(op(0, mem::ReqType::Read,
                         static_cast<Addr>(i) * 64 * 4 * 128));
    build(std::move(ops), op(1'000'000, mem::ReqType::Read, 0), 700);
    run(40000);
    ASSERT_TRUE(core->finished());
    EXPECT_EQ(core->stats().reads, 600u);
    EXPECT_GT(core->stats().memStallCycles, 100u);
}

TEST_F(CoreTest, StatisticsFreezeAtBudget)
{
    build({}, op(100, mem::ReqType::Read, 0), 3000);
    run(20000); // run() stops at finished(), so step manually beyond
    ASSERT_TRUE(core->finished());
    const std::uint64_t instr_at_finish = core->stats().instrRetired;
    const CpuCycle finish = core->stats().finishCycle;
    for (Cycle c = 0; c < 1000; ++c) {
        mc->tick(now);
        core->tickBusCycle(now);
        ++now;
    }
    EXPECT_EQ(core->stats().instrRetired, instr_at_finish);
    EXPECT_EQ(core->stats().finishCycle, finish);
}

TEST_F(CoreTest, McpiIsStallPerInstruction)
{
    build({op(0, mem::ReqType::Read, 0x1000)},
          op(1'000'000, mem::ReqType::Read, 0), 3000);
    run(5000);
    const CoreStats &s = core->stats();
    EXPECT_DOUBLE_EQ(s.mcpi(),
                     static_cast<double>(s.memStallCycles) /
                         static_cast<double>(s.instrRetired));
}
