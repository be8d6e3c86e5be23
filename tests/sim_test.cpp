/**
 * @file
 * Tests for the simulation driver: design presets, metrics math, the
 * energy and area models, System execution, and the Runner's alone-run
 * caching.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "sim/area_model.h"
#include "sim/design_registry.h"
#include "sim/energy_model.h"
#include "sim/metrics.h"
#include "sim/runner.h"
#include "sim/system.h"
#include "workloads/rng_benchmark.h"
#include "workloads/synthetic_trace.h"

using namespace dstrange;
using namespace dstrange::sim;

TEST(SimConfigPresets, DesignsMapToExpectedMcConfigs)
{
    SimConfig cfg;

    DesignRegistry::instance().apply("oblivious", cfg);
    EXPECT_FALSE(cfg.rngAwareQueueing);
    EXPECT_EQ(cfg.bufferCapacity(), 0u);
    EXPECT_EQ(cfg.scheduler, "fr-fcfs-cap");

    DesignRegistry::instance().apply("drstrange", cfg);
    EXPECT_TRUE(cfg.rngAwareQueueing);
    EXPECT_EQ(cfg.bufferCapacity(), 16u);
    EXPECT_EQ(cfg.fillMode(), mem::FillMode::Engine);
    EXPECT_EQ(cfg.predictor, "simple");
    EXPECT_EQ(cfg.lowUtilBound(), 4u);

    DesignRegistry::instance().apply("drstrange-nolowutil", cfg);
    EXPECT_EQ(cfg.lowUtilBound(), 0u);

    DesignRegistry::instance().apply("drstrange-nopred", cfg);
    EXPECT_EQ(cfg.predictor, "none");

    DesignRegistry::instance().apply("drstrange-rl", cfg);
    EXPECT_EQ(cfg.predictor, "rl");

    DesignRegistry::instance().apply("greedy", cfg);
    EXPECT_EQ(cfg.fillMode(), mem::FillMode::GreedyOracle);

    DesignRegistry::instance().apply("rng-aware", cfg);
    EXPECT_TRUE(cfg.rngAwareQueueing);
    EXPECT_EQ(cfg.bufferCapacity(), 0u);

    DesignRegistry::instance().apply("bliss", cfg);
    EXPECT_EQ(cfg.scheduler, "bliss");

    DesignRegistry::instance().apply("frfcfs", cfg);
    EXPECT_EQ(cfg.scheduler, "fr-fcfs");
}

namespace {

void
expectKnobsOf(const SimConfig &cfg, const DesignPreset &row)
{
    EXPECT_EQ(cfg.scheduler, row.scheduler);
    EXPECT_EQ(cfg.rngAwareQueueing, row.rngAwareQueueing);
    EXPECT_EQ(cfg.buffering, row.buffering);
    EXPECT_EQ(cfg.fillPolicy, row.fillPolicy);
    EXPECT_EQ(cfg.predictor, row.predictor);
    EXPECT_EQ(cfg.lowUtilFill, row.lowUtilFill);
}

} // namespace

TEST(SimConfigPresets, DesignNameKeyRoundTrip)
{
    const DesignRegistry &registry = DesignRegistry::instance();
    for (const DesignPreset &row : kPaperDesigns) {
        for (const std::string name : {row.key, row.displayName}) {
            SCOPED_TRACE(name);
            EXPECT_TRUE(registry.contains(name));
            EXPECT_EQ(registry.displayName(name), row.displayName);
            SimConfig cfg;
            registry.apply(name, cfg);
            expectKnobsOf(cfg, row);
        }
    }

    SimConfig cfg;
    try {
        registry.apply("no-such-design", cfg);
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range &e) {
        for (const DesignPreset &row : kPaperDesigns)
            EXPECT_NE(std::string(e.what()).find(row.key),
                      std::string::npos)
                << row.key;
    }
}

TEST(SimConfigPresets, DefaultConfigIsTheDrStrangeDesign)
{
    const auto dr = std::find_if(
        kPaperDesigns.begin(), kPaperDesigns.end(),
        [](const DesignPreset &row) {
            return std::string_view(row.key) == "drstrange";
        });
    ASSERT_NE(dr, kPaperDesigns.end());
    expectKnobsOf(SimConfig{}, *dr);
}

TEST(Metrics, SlowdownAndMemSlowdown)
{
    cpu::CoreStats shared;
    shared.finishCycle = 2000;
    shared.instrRetired = 1000;
    shared.memStallCycles = 500;

    AloneResult alone;
    alone.execCpuCycles = 1000;
    alone.mcpi = 0.25;

    EXPECT_DOUBLE_EQ(slowdown(shared, alone), 2.0);
    EXPECT_DOUBLE_EQ(memSlowdown(shared, alone), 0.5 / 0.25);
}

TEST(Metrics, MemSlowdownFallsBackForComputeBoundApps)
{
    cpu::CoreStats shared;
    shared.finishCycle = 1500;
    shared.instrRetired = 1000;
    shared.memStallCycles = 1;

    AloneResult alone;
    alone.execCpuCycles = 1000;
    alone.mcpi = 0.0; // no memory stall alone
    EXPECT_DOUBLE_EQ(memSlowdown(shared, alone), 1.5);
}

TEST(Metrics, UnfairnessIsMaxOverMin)
{
    EXPECT_DOUBLE_EQ(unfairness({1.0, 2.0, 4.0}), 4.0);
    EXPECT_DOUBLE_EQ(unfairness({3.0, 3.0}), 1.0);
}

TEST(Metrics, UnfairnessFloorsSpeedupsAtOne)
{
    // An application running faster than alone (slowdown < 1) does not
    // inflate the index: 1.5 / max(1, 0.5) = 1.5.
    EXPECT_DOUBLE_EQ(unfairness({0.5, 1.5}), 1.5);
    EXPECT_DOUBLE_EQ(unfairness({0.2, 0.9}), 1.0);
}

TEST(Metrics, WeightedSpeedupSumsIpcRatios)
{
    EXPECT_DOUBLE_EQ(weightedSpeedup({1.0, 2.0}, {2.0, 2.0}), 1.5);
}

TEST(EnergyModel, CountersProduceProportionalEnergy)
{
    const dram::DramTimings t;
    dram::ChannelEnergyCounters c;
    c.nAct = 100;
    c.nRd = 300;
    c.nWr = 100;
    c.nRef = 2;
    c.cyclesActive = 10000;
    c.cyclesPrecharged = 5000;
    c.rngRounds = 50;

    const EnergyBreakdown e = channelEnergy(t, c);
    EXPECT_GT(e.actPre, 0.0);
    EXPECT_GT(e.read, 0.0);
    EXPECT_GT(e.write, 0.0);
    EXPECT_GT(e.refresh, 0.0);
    EXPECT_GT(e.background, 0.0);
    EXPECT_GT(e.rng, 0.0);
    EXPECT_NEAR(e.total(), e.actPre + e.read + e.write + e.refresh +
                               e.background + e.rng,
                1e-9);

    // Doubling activity doubles the corresponding component.
    dram::ChannelEnergyCounters c2 = c;
    c2.nRd *= 2;
    EXPECT_NEAR(channelEnergy(t, c2).read, 2.0 * e.read, 1e-9);
}

TEST(EnergyModel, IdleSystemBurnsOnlyBackground)
{
    const dram::DramTimings t;
    dram::ChannelEnergyCounters c;
    c.cyclesPrecharged = 1000;
    const EnergyBreakdown e = channelEnergy(t, c);
    EXPECT_DOUBLE_EQ(e.actPre + e.read + e.write + e.refresh + e.rng, 0.0);
    EXPECT_GT(e.background, 0.0);
}

TEST(AreaModel, MatchesPaperCalibrationPoints)
{
    SimConfig cfg;
    DesignRegistry::instance().apply("drstrange", cfg);
    const AreaEstimate base = drStrangeArea(cfg, 4);
    // Paper: 0.0022 mm^2 at 22 nm for the base configuration.
    EXPECT_NEAR(base.mm2, 0.0022, 0.0022 * 0.25);
    EXPECT_NEAR(base.fractionOfCascadeLakeCore(), 0.0000048, 2e-6);

    DesignRegistry::instance().apply("drstrange-rl", cfg);
    const AreaEstimate rl = drStrangeArea(cfg, 4);
    // Paper: 0.012 mm^2 with the 8 KB Q-table.
    EXPECT_NEAR(rl.mm2, 0.012, 0.012 * 0.25);
    EXPECT_GT(rl.storageBits, 64.0 * 1024.0); // 8 KB+
}

TEST(AreaModel, AreaGrowsWithBufferSize)
{
    SimConfig cfg;
    DesignRegistry::instance().apply("drstrange", cfg);
    cfg.bufferEntries = 16;
    const double small = drStrangeArea(cfg, 4).mm2;
    cfg.bufferEntries = 64;
    const double large = drStrangeArea(cfg, 4).mm2;
    EXPECT_GT(large, small);
}

namespace {

std::vector<std::unique_ptr<cpu::TraceSource>>
singleAppTraces(const SimConfig &cfg, const std::string &app)
{
    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    traces.push_back(std::make_unique<workloads::SyntheticTrace>(
        workloads::appByName(app), cfg.geometry, 0, cfg.seed));
    return traces;
}

} // namespace

TEST(System, SingleCoreRunCompletes)
{
    SimConfig cfg;
    DesignRegistry::instance().apply("oblivious", cfg);
    cfg.instrBudget = 20000;
    System sys(cfg, singleAppTraces(cfg, "gcc"));
    sys.run();
    EXPECT_TRUE(sys.allFinished());
    EXPECT_EQ(sys.coreStats(0).instrRetired, 20000u);
    EXPECT_GT(sys.busCycles(), 0u);
}

TEST(System, RunsAreDeterministic)
{
    SimConfig cfg;
    DesignRegistry::instance().apply("drstrange", cfg);
    cfg.instrBudget = 20000;
    cfg.seed = 17;

    auto run_once = [&]() {
        System sys(cfg, singleAppTraces(cfg, "milc"));
        sys.run();
        return sys.busCycles();
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(System, MaxBusCyclesBoundsRuntime)
{
    SimConfig cfg;
    DesignRegistry::instance().apply("oblivious", cfg);
    cfg.instrBudget = 1u << 30; // unreachable
    cfg.maxBusCycles = 5000;
    System sys(cfg, singleAppTraces(cfg, "mcf"));
    sys.run();
    EXPECT_FALSE(sys.allFinished());
    EXPECT_EQ(sys.busCycles(), 5000u);
}

TEST(Runner, AloneResultsAreCachedAndConsistent)
{
    SimConfig cfg;
    cfg.instrBudget = 20000;
    Runner runner(cfg);
    const AloneResult &a = runner.alone("gcc");
    const AloneResult &b = runner.alone("gcc");
    EXPECT_EQ(&a, &b); // same cached object
    EXPECT_GT(a.ipc, 0.0);
    EXPECT_GT(a.execCpuCycles, 0.0);
}

TEST(Runner, WorkloadResultHasPerCoreEntries)
{
    SimConfig cfg;
    cfg.instrBudget = 20000;
    Runner runner(cfg);
    workloads::WorkloadSpec spec;
    spec.name = "t";
    spec.apps = {"gcc", "milc"};
    spec.rngThroughputMbps = 5120.0;
    const auto res = runner.run("drstrange", spec);
    ASSERT_EQ(res.cores.size(), 3u);
    EXPECT_FALSE(res.cores[0].isRng);
    EXPECT_FALSE(res.cores[1].isRng);
    EXPECT_TRUE(res.cores[2].isRng);
    EXPECT_GE(res.unfairnessIndex, 1.0);
    EXPECT_GT(res.energyNj, 0.0);
    EXPECT_GT(res.weightedSpeedupNonRng, 0.0);
    EXPECT_LE(res.weightedSpeedupNonRng, 2.05);
}

TEST(Runner, NoRngWorkloadRunsCleanly)
{
    SimConfig cfg;
    cfg.instrBudget = 20000;
    Runner runner(cfg);
    workloads::WorkloadSpec spec;
    spec.name = "pair";
    spec.apps = {"gcc", "bzip2"};
    spec.rngThroughputMbps = 0.0;
    const auto res = runner.run("oblivious", spec);
    EXPECT_EQ(res.cores.size(), 2u);
    EXPECT_EQ(res.mcStats.rngRequests, 0u);
    EXPECT_DOUBLE_EQ(res.rngSlowdown(), 1.0);
}
