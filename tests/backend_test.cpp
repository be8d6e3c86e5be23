/**
 * @file
 * Tests for the mem::MemoryBackend seam: the BackendRegistry (built-in
 * keys, validation, user registration), the fixed-latency analytical
 * backend's timing behavior, and full-system runs over a non-default
 * backend (including fast-forward bit-identity).
 */

#include <gtest/gtest.h>

#include "api/simulation_builder.h"
#include "dram/dram_channel.h"
#include "mem/backend_registry.h"
#include "mem/fixed_latency_backend.h"
#include "mem/memory_controller.h"
#include "sim/config_text.h"
#include "sim/lockstep.h"
#include "sim/system.h"
#include "workloads/synthetic_trace.h"

using namespace dstrange;

namespace {

mem::McConfig
defaultMcConfig()
{
    return mem::McConfig{};
}

} // namespace

// ---------------------------------------------------------------------
// BackendRegistry.
// ---------------------------------------------------------------------

TEST(BackendRegistry, BuiltInKeysAreRegistered)
{
    auto &reg = mem::BackendRegistry::instance();
    EXPECT_TRUE(reg.contains("ddr4"));
    EXPECT_TRUE(reg.contains("fixed-latency"));
    const auto keys = reg.keys();
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    EXPECT_GE(keys.size(), 2u);
}

TEST(BackendRegistry, MakeInstantiatesTheRightModel)
{
    const dram::DramTimings timings;
    const dram::DramGeometry geometry;
    const mem::McConfig cfg = defaultMcConfig();
    const mem::BackendContext ctx{timings, geometry, cfg};

    auto ddr4 = mem::BackendRegistry::instance().make("ddr4", ctx);
    EXPECT_NE(dynamic_cast<dram::DramChannel *>(ddr4.get()), nullptr);

    auto fixed =
        mem::BackendRegistry::instance().make("fixed-latency", ctx);
    EXPECT_NE(dynamic_cast<mem::FixedLatencyBackend *>(fixed.get()),
              nullptr);
    EXPECT_EQ(fixed->numBanks(), geometry.banksPerChannel());
    EXPECT_EQ(fixed->numRanks(), geometry.ranksPerChannel);
}

TEST(BackendRegistry, UnknownKeyThrowsWithInventory)
{
    const dram::DramTimings timings;
    const dram::DramGeometry geometry;
    const mem::McConfig cfg = defaultMcConfig();
    const mem::BackendContext ctx{timings, geometry, cfg};
    try {
        mem::BackendRegistry::instance().make("no-such-backend", ctx);
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown backend"), std::string::npos);
        EXPECT_NE(msg.find("ddr4"), std::string::npos);
    }
}

TEST(BackendRegistry, RejectsInvalidAndDuplicateKeys)
{
    auto &reg = mem::BackendRegistry::instance();
    const auto factory = [](const mem::BackendContext &ctx) {
        return std::make_unique<mem::FixedLatencyBackend>(ctx.geometry,
                                                          1, 1, 1);
    };
    EXPECT_THROW(reg.add("", factory), std::invalid_argument);
    EXPECT_THROW(reg.add("Bad Key!", factory), std::invalid_argument);
    EXPECT_THROW(reg.add("ddr4", factory), std::invalid_argument);
}

TEST(BackendRegistry, UserBackendReachesTheController)
{
    auto &reg = mem::BackendRegistry::instance();
    if (!reg.contains("test-fixed")) {
        reg.add("test-fixed", [](const mem::BackendContext &ctx) {
            return std::make_unique<mem::FixedLatencyBackend>(
                ctx.geometry, 5, 5, 1);
        });
    }
    // A user registration is a valid config-text key at once.
    const sim::SimulationBuilder b =
        sim::SimulationBuilder::fromText("backend.kind=test-fixed budget=2000");
    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    traces.push_back(std::make_unique<workloads::SyntheticTrace>(
        workloads::appByName("soplex"), b.config().geometry, 0,
        b.config().seed));
    sim::System sys = b.buildSystem(std::move(traces));
    sys.run();
    EXPECT_TRUE(sys.allFinished());
    EXPECT_NE(
        dynamic_cast<const mem::FixedLatencyBackend *>(&sys.mc().channel(0)),
        nullptr);
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
// FixedLatencyBackend timing semantics.
// ---------------------------------------------------------------------

TEST(FixedLatencyBackend, ActivateOpenReadClose)
{
    const dram::DramGeometry geometry;
    mem::FixedLatencyBackend chan(geometry, /*read=*/20, /*write=*/25,
                                  /*gap=*/4);

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

    // Column gap throttles back-to-back column commands.
    EXPECT_FALSE(chan.canIssue(dram::DramCmd::Rd, 0, 12));
    EXPECT_TRUE(chan.canIssue(dram::DramCmd::Rd, 0, 11 + 4));

    chan.issue(dram::DramCmd::Pre, 0, 20);
    EXPECT_EQ(chan.openRow(0), dram::kNoOpenRow);
    EXPECT_EQ(chan.energyCounters().nAct, 1u);
    EXPECT_EQ(chan.energyCounters().nRd, 1u);
    EXPECT_EQ(chan.energyCounters().nPre, 1u);
}

TEST(FixedLatencyBackend, RngOccupancyClosesBanksAndBlocks)
{
    const dram::DramGeometry geometry;
    mem::FixedLatencyBackend chan(geometry, 20, 20, 4);
    chan.issue(dram::DramCmd::Act, 0, 0, 7);
    chan.occupyForRng(100);
    EXPECT_EQ(chan.openBankCount(), 0u);
    EXPECT_TRUE(chan.rngBusy(50));
    EXPECT_FALSE(chan.rngBusy(100));
    EXPECT_FALSE(chan.canIssue(dram::DramCmd::Act, 0, 50));
    EXPECT_TRUE(chan.canIssue(dram::DramCmd::Act, 0, 100));
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

TEST(FixedLatencyBackend, SystemRunsToCompletion)
{
    const sim::SimConfig cfg = fixedLatencyConfig();
    sim::System sys(cfg, soplexTrace(cfg));
    sys.run();
    EXPECT_TRUE(sys.allFinished());
    EXPECT_GT(sys.mc().stats().readsCompleted, 0u);
}

TEST(FixedLatencyBackend, FastForwardIsBitIdentical)
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
