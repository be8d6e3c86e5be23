/**
 * @file
 * Tests for the channel models backend.kind selects: the kind list and
 * its unknown-kind message, the fixed-latency row of dram::TimingTable
 * driving a dram::DramChannel, and full-system runs over the
 * fixed-latency row (including fast-forward bit-identity).
 */

#include <gtest/gtest.h>

#include "api/simulation_builder.h"
#include "dram/dram_channel.h"
#include "mem/memory_controller.h"
#include "sim/config_text.h"
#include "sim/lockstep.h"
#include "sim/system.h"
#include "workloads/synthetic_trace.h"

using namespace dstrange;

// ---------------------------------------------------------------------
// The channel-model kinds.
// ---------------------------------------------------------------------

TEST(BackendKind, BothKindsAreListed)
{
    const auto &kinds = dram::kChannelModels;
    EXPECT_TRUE(std::is_sorted(kinds.begin(), kinds.end(),
                               [](const char *a, const char *b) {
                                   return std::string(a) < b;
                               }));
    EXPECT_NO_THROW(dram::requireChannelModel("ddr4"));
    EXPECT_NO_THROW(dram::requireChannelModel("fixed-latency"));
}

TEST(BackendKind, EachKindDerivesItsTable)
{
    mem::McConfig cfg;
    const dram::TimingTable ddr = cfg.timingTable();
    EXPECT_EQ(ddr.readDone, cfg.timings.tCL + cfg.timings.tBL);
    EXPECT_EQ(ddr.tREFI, cfg.timings.tREFI);
    EXPECT_TRUE(ddr.powerDown);

    cfg.backend = "fixed-latency";
    const dram::TimingTable fixed = cfg.timingTable();
    EXPECT_EQ(fixed.readDone, cfg.backendReadLatency);
    EXPECT_EQ(fixed.writeDone, cfg.backendWriteLatency);
    EXPECT_EQ(fixed.tREFI, 0u);
    EXPECT_FALSE(fixed.powerDown);
    EXPECT_TRUE(fixed.rngClosesRows);

    const dram::DramChannel chan(fixed, cfg.geometry);
    EXPECT_EQ(chan.numBanks(), cfg.geometry.banksPerChannel());
    EXPECT_EQ(chan.numRanks(), cfg.geometry.ranksPerChannel);
}

TEST(BackendKind, UnknownKindThrowsWithInventory)
{
    mem::McConfig cfg;
    cfg.backend = "no-such-backend";
    try {
        cfg.timingTable();
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown backend 'no-such-backend' (registered: "
                           "ddr4, fixed-latency)"),
                  std::string::npos)
            << msg;
    }
}

// ---------------------------------------------------------------------
// SimulationBuilder / config text.
// ---------------------------------------------------------------------

TEST(BackendConfig, BuilderValidatesEagerly)
{
    sim::SimulationBuilder b;
    EXPECT_THROW(b.applyText("backend.kind=no-such-backend"),
                 std::invalid_argument);
    EXPECT_EQ(b.config().backend, "ddr4");
    b.applyText("backend.kind=fixed-latency backend.read-latency=7 "
                "backend.write-latency=9 backend.gap=2");
    EXPECT_EQ(b.config().backend, "fixed-latency");
    EXPECT_EQ(b.config().backendReadLatency, 7u);
    EXPECT_EQ(b.config().backendWriteLatency, 9u);
    EXPECT_EQ(b.config().backendGap, 2u);
}

TEST(BackendConfig, ConfigTextRoundTrips)
{
    sim::SimConfig cfg;
    sim::applyConfigText(cfg,
                         "backend.kind=fixed-latency "
                         "backend.read-latency=11 backend.gap=3");
    EXPECT_EQ(cfg.backend, "fixed-latency");
    EXPECT_EQ(cfg.backendReadLatency, 11u);
    EXPECT_EQ(cfg.backendGap, 3u);

    const std::string text = sim::serializeConfig(cfg);
    EXPECT_NE(text.find("backend.kind=fixed-latency"),
              std::string::npos);
    sim::SimConfig back;
    sim::applyConfigText(back, text);
    EXPECT_EQ(sim::serializeConfig(back), text);
}

TEST(BackendConfig, ConfigTextRejectsUnknownBackend)
{
    sim::SimConfig cfg;
    EXPECT_THROW(sim::applyConfigText(cfg, "backend.kind=nope"),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// The fixed-latency row's timing semantics.
// ---------------------------------------------------------------------

TEST(FixedLatencyRow, ActivateOpenReadClose)
{
    const dram::DramGeometry geometry;
    dram::DramChannel chan(
        dram::TimingTable::fixedLatency(/*read=*/20, /*write=*/25, /*gap=*/4),
        geometry);

    // Reads need an open row; activates need a closed bank.
    EXPECT_FALSE(chan.canIssue(dram::DramCmd::Rd, 0, 10));
    EXPECT_TRUE(chan.canIssue(dram::DramCmd::Act, 0, 10));
    chan.issue(dram::DramCmd::Act, 0, 10, 42);
    EXPECT_EQ(chan.openRow(0), 42);
    EXPECT_EQ(chan.openBankCount(), 1u);

    // The command bus carries one command per cycle.
    EXPECT_FALSE(chan.canIssue(dram::DramCmd::Rd, 0, 10));
    EXPECT_TRUE(chan.canIssue(dram::DramCmd::Rd, 0, 11));
    const Cycle done = chan.issue(dram::DramCmd::Rd, 0, 11);
    EXPECT_EQ(done, 11 + 20);

    // Column gap throttles back-to-back column commands, channel-wide.
    EXPECT_FALSE(chan.canIssue(dram::DramCmd::Rd, 0, 12));
    EXPECT_TRUE(chan.canIssue(dram::DramCmd::Rd, 0, 11 + 4));
    chan.issue(dram::DramCmd::Act, 1, 12, 3);
    EXPECT_FALSE(chan.canIssue(dram::DramCmd::Wr, 1, 11 + 3));
    EXPECT_TRUE(chan.canIssue(dram::DramCmd::Wr, 1, 11 + 4));

    chan.issue(dram::DramCmd::Pre, 0, 20);
    EXPECT_EQ(chan.openRow(0), dram::kNoOpenRow);
    EXPECT_EQ(chan.energyCounters().nAct, 2u);
    EXPECT_EQ(chan.energyCounters().nRd, 1u);
    EXPECT_EQ(chan.energyCounters().nPre, 1u);
}

TEST(FixedLatencyRow, RngOccupancyClosesBanksAndBlocks)
{
    const dram::DramGeometry geometry;
    dram::DramChannel chan(dram::TimingTable::fixedLatency(20, 20, 4),
                           geometry);
    chan.issue(dram::DramCmd::Act, 0, 0, 7);
    chan.occupyForRng(100);
    EXPECT_EQ(chan.openBankCount(), 0u);
    EXPECT_TRUE(chan.rngBusy(50));
    EXPECT_FALSE(chan.rngBusy(100));
    EXPECT_FALSE(chan.canIssue(dram::DramCmd::Act, 0, 50));
    EXPECT_TRUE(chan.canIssue(dram::DramCmd::Act, 0, 100));
}

TEST(FixedLatencyRow, NoRefreshAndNoPowerDown)
{
    const dram::DramGeometry geometry;
    dram::DramChannel chan(dram::TimingTable::fixedLatency(20, 20, 4),
                           geometry);
    chan.setPowerDownPolicy(10);
    EXPECT_EQ(chan.nextEventCycle(0, false), kNoEvent);
    for (Cycle c = 0; c < 20000; ++c) {
        chan.tickRefresh(c);
        chan.sampleState(c);
    }
    EXPECT_FALSE(chan.refreshBusy(20000));
    EXPECT_FALSE(chan.anyRankPoweredDown());
    EXPECT_EQ(chan.energyCounters().nRef, 0u);
    EXPECT_EQ(chan.energyCounters().cyclesPrecharged, 20000u);
}

// ---------------------------------------------------------------------
// Full-system runs over the fixed-latency backend.
// ---------------------------------------------------------------------

namespace {

sim::SimConfig
fixedLatencyConfig()
{
    sim::SimConfig cfg;
    cfg.backend = "fixed-latency";
    cfg.instrBudget = 5000;
    return cfg;
}

std::vector<std::unique_ptr<cpu::TraceSource>>
soplexTrace(const sim::SimConfig &cfg)
{
    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    traces.push_back(std::make_unique<workloads::SyntheticTrace>(
        workloads::appByName("soplex"), cfg.geometry, 0, cfg.seed));
    return traces;
}

} // namespace

TEST(FixedLatencyRow, SystemRunsToCompletion)
{
    const sim::SimConfig cfg = fixedLatencyConfig();
    sim::System sys(cfg, soplexTrace(cfg));
    sys.run();
    EXPECT_TRUE(sys.allFinished());
    EXPECT_GT(sys.mc().stats().readsCompleted, 0u);
}

TEST(FixedLatencyRow, FastForwardIsBitIdentical)
{
    const sim::SimConfig cfg = fixedLatencyConfig();
    sim::System ff(cfg, soplexTrace(cfg));
    ff.setFastForward(true);
    ff.run();
    sim::System step(cfg, soplexTrace(cfg));
    step.setFastForward(false);
    step.run();
    EXPECT_EQ(sim::systemFingerprint(ff), sim::systemFingerprint(step));
    EXPECT_GT(ff.ffStats().skippedCycles, 0u);
}
