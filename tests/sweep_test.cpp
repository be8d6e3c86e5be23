/**
 * @file
 * Tests for the parallel sweep engine: the thread-safe alone-run cache
 * (concurrent same-key and distinct-key access, single-core runs that
 * serve as their own baseline, exact rate keys), SweepRunner's
 * deterministic grid ordering and error capture, serial-vs-parallel
 * bit-identity of every metric (dual-core, QUAC, service, fault and
 * 2-rank cells), DS_JOBS handling, and the builder's
 * buildSweepCell() convenience. Runs under the ASan/UBSan CI job like
 * every other suite.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "drstrange.h"

using namespace dstrange;

namespace {

/** Small budget so each simulated cell finishes in milliseconds. */
sim::SimConfig
tinyConfig()
{
    sim::SimConfig cfg;
    cfg.instrBudget = 3000;
    return cfg;
}

/** The RNG benchmark alone on one core. */
workloads::WorkloadSpec
rngSpec(double mbps)
{
    workloads::WorkloadSpec spec;
    spec.name = "rng";
    spec.rngThroughputMbps = mbps;
    return spec;
}

workloads::WorkloadSpec
dualSpec(const std::string &app, double mbps = 5120.0)
{
    workloads::WorkloadSpec spec;
    spec.name = app + "+rng";
    spec.apps = {app};
    spec.rngThroughputMbps = mbps;
    return spec;
}

/** The full metric tuple of a run, for exact (==) comparisons. */
std::vector<double>
metricTuple(const sim::Runner::WorkloadResult &res)
{
    std::vector<double> out = {
        res.unfairnessIndex,    res.weightedSpeedupNonRng,
        res.bufferServeRate,    res.predictorAccuracy,
        res.energyNj,           static_cast<double>(res.busCycles),
    };
    for (const auto &core : res.cores) {
        out.push_back(core.slowdown);
        out.push_back(core.memSlowdown);
        out.push_back(core.ipcShared);
        out.push_back(core.ipcAlone);
        out.push_back(core.rngStallFraction);
    }
    if (res.service) {
        const service::SloReport &slo = *res.service;
        out.insert(out.end(),
                   {static_cast<double>(slo.completed),
                    static_cast<double>(slo.shed),
                    static_cast<double>(slo.p50),
                    static_cast<double>(slo.p99),
                    static_cast<double>(slo.p999), slo.goodputRps,
                    slo.saturated ? 1.0 : 0.0});
    }
    if (res.fault) {
        const fault::FaultReport &f = *res.fault;
        out.insert(out.end(), {static_cast<double>(f.roundsAudited),
                               static_cast<double>(f.roundsDiscarded),
                               static_cast<double>(f.corruptedBits),
                               static_cast<double>(f.blacklisted),
                               static_cast<double>(f.remapped)});
    }
    return out;
}

/** An explicit-config cell: @p cfg is tinyConfig() under @p design,
 *  then @p tweak. */
template <typename Tweak>
sim::SweepRunner::Cell
configCell(const std::string &design, workloads::WorkloadSpec spec,
           Tweak tweak)
{
    sim::SimConfig cfg = tinyConfig();
    sim::DesignRegistry::instance().apply(design, cfg);
    tweak(cfg);
    sim::SweepRunner::Cell cell;
    cell.config = std::move(cfg);
    cell.spec = std::move(spec);
    return cell;
}

/** Open-loop RNG service knobs, as a service-only cell uses them. */
void
enableService(sim::SimConfig &cfg)
{
    cfg.service.enabled = true;
    cfg.service.offeredMbps = 5120.0;
    cfg.service.durationCycles = 20000;
    cfg.service.sloTargetCycles = 500;
}

} // namespace

TEST(AloneCache, ConcurrentSameKeyComputesOnce)
{
    sim::Runner runner(tinyConfig());
    constexpr int kThreads = 8;
    std::vector<const sim::AloneResult *> seen(kThreads, nullptr);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back(
            [&runner, &seen, t] { seen[t] = &runner.alone("mcf"); });
    }
    for (auto &t : pool)
        t.join();
    // One entry: every thread got the same stable address, and the
    // value matches an independent serial computation.
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[0], seen[t]);
    sim::Runner serial(tinyConfig());
    const sim::AloneResult &ref = serial.alone("mcf");
    EXPECT_EQ(seen[0]->execCpuCycles, ref.execCpuCycles);
    EXPECT_EQ(seen[0]->ipc, ref.ipc);
    EXPECT_EQ(seen[0]->mcpi, ref.mcpi);
}

TEST(AloneCache, ConcurrentDistinctKeys)
{
    const std::vector<std::string> apps = {"mcf",    "soplex",
                                           "lbm",    "milc",
                                           "gcc",    "namd"};
    sim::Runner runner(tinyConfig());
    std::vector<sim::AloneResult> parallel(apps.size());
    std::vector<sim::AloneResult> rng_parallel(2);
    std::vector<std::thread> pool;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        pool.emplace_back([&runner, &apps, &parallel, i] {
            parallel[i] = runner.alone(apps[i]);
        });
    }
    // aloneRng on the same and different throughputs, concurrently.
    pool.emplace_back([&runner, &rng_parallel] {
        rng_parallel[0] = runner.aloneRng(5120.0);
    });
    pool.emplace_back([&runner, &rng_parallel] {
        rng_parallel[1] = runner.aloneRng(10240.0);
    });
    for (auto &t : pool)
        t.join();

    sim::Runner serial(tinyConfig());
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const sim::AloneResult &ref = serial.alone(apps[i]);
        EXPECT_EQ(parallel[i].execCpuCycles, ref.execCpuCycles) << apps[i];
        EXPECT_EQ(parallel[i].ipc, ref.ipc) << apps[i];
        EXPECT_EQ(parallel[i].mcpi, ref.mcpi) << apps[i];
    }
    EXPECT_EQ(rng_parallel[0].execCpuCycles,
              serial.aloneRng(5120.0).execCpuCycles);
    EXPECT_EQ(rng_parallel[1].execCpuCycles,
              serial.aloneRng(10240.0).execCpuCycles);
}

TEST(AloneCache, SingleCoreObliviousCellIsItsOwnBaseline)
{
    // No persistent store: every baseline is either simulated (and
    // counted) or taken from the cell itself.
    sim::Runner runner(tinyConfig(), nullptr);
    const auto oblivious = runner.run("oblivious", rngSpec(2560.0));
    EXPECT_EQ(runner.aloneSimulations(), 0u);
    EXPECT_EQ(oblivious.rngSlowdown(), 1.0);
    // The drstrange twin normalizes to the same oblivious baseline.
    const auto drstrange = runner.run("drstrange", rngSpec(2560.0));
    EXPECT_EQ(runner.aloneSimulations(), 0u);

    // Bit-identical to the results over a separately simulated
    // baseline.
    sim::Runner warm(tinyConfig(), nullptr);
    warm.aloneRng(2560.0);
    EXPECT_EQ(warm.aloneSimulations(), 1u);
    EXPECT_EQ(metricTuple(warm.run("oblivious", rngSpec(2560.0))),
              metricTuple(oblivious));
    EXPECT_EQ(metricTuple(warm.run("drstrange", rngSpec(2560.0))),
              metricTuple(drstrange));
    EXPECT_EQ(warm.aloneSimulations(), 1u);

    // Likewise an application alone on one core.
    workloads::WorkloadSpec app;
    app.name = "gcc";
    app.apps = {"gcc"};
    app.rngThroughputMbps = 0.0;
    EXPECT_EQ(runner.run("oblivious", app).avgNonRngSlowdown(), 1.0);
    EXPECT_EQ(runner.aloneSimulations(), 0u);
}

TEST(AloneCache, OtherCellsRunTheirOwnBaseline)
{
    {
        // Recording cells differ from their alone config (alone runs
        // never record).
        sim::Runner runner(tinyConfig(), nullptr);
        sim::SimConfig cfg = runner.base();
        sim::DesignRegistry::instance().apply("oblivious", cfg);
#ifdef _WIN32
        const int pid = _getpid();
#else
        const int pid = ::getpid();
#endif
        cfg.traceRecord = ::testing::TempDir() + "dstrange_alone_reuse-" +
                          std::to_string(pid) + ".trc";
        runner.run(cfg, rngSpec(2560.0));
        std::remove(cfg.traceRecord.c_str());
        EXPECT_EQ(runner.aloneSimulations(), 1u);
    }
    {
        sim::Runner runner(tinyConfig(), nullptr);
        runner.run("oblivious", dualSpec("gcc"));
        EXPECT_EQ(runner.aloneSimulations(), 2u); // gcc and the RNG.
    }
    {
        sim::Runner runner(tinyConfig(), nullptr);
        runner.run("drstrange", rngSpec(2560.0));
        EXPECT_EQ(runner.aloneSimulations(), 1u);
    }
}

TEST(AloneCache, RngRatesDifferingBelowAMicroMbpsGetDistinctBaselines)
{
    // Six fixed decimals would print both rates as "2560.000000".
    sim::Runner runner(tinyConfig(), nullptr);
    const sim::AloneResult &a = runner.aloneRng(2560.0);
    const sim::AloneResult &b = runner.aloneRng(2560.0 + 1e-7);
    EXPECT_NE(&a, &b);
    EXPECT_EQ(runner.aloneSimulations(), 2u);
    EXPECT_EQ(&runner.aloneRng(2560.0 + 1e-7), &b);
    EXPECT_EQ(runner.aloneSimulations(), 2u);
}

TEST(SweepRunner, GridIsSpecMajorInDeterministicOrder)
{
    const std::vector<std::string> designs = {"oblivious", "drstrange"};
    const std::vector<workloads::WorkloadSpec> specs = {
        dualSpec("mcf"), dualSpec("soplex"), dualSpec("lbm")};
    const auto cells = sim::SweepRunner::grid(designs, specs);
    ASSERT_EQ(cells.size(), 6u);
    EXPECT_EQ(cells[0].design, "oblivious");
    EXPECT_EQ(cells[0].spec.name, "mcf+rng");
    EXPECT_EQ(cells[1].design, "drstrange");
    EXPECT_EQ(cells[1].spec.name, "mcf+rng");
    EXPECT_EQ(cells[4].design, "oblivious");
    EXPECT_EQ(cells[4].spec.name, "lbm+rng");
    EXPECT_FALSE(cells[0].config.has_value());
}

TEST(SweepRunner, ParallelResultsBitIdenticalToSerialRunner)
{
    const std::vector<std::string> designs = {"oblivious", "greedy",
                                              "drstrange"};
    const std::vector<workloads::WorkloadSpec> specs = {
        dualSpec("mcf"), dualSpec("soplex"), dualSpec("lbm"),
        dualSpec("milc")};
    auto cells = sim::SweepRunner::grid(designs, specs);

    // One explicit-config cell per tier beyond the dual-core mixes: a
    // QUAC RNG-alone cell, an open-loop service cell, a faulty service
    // cell with the health monitor on, and a 2-rank channel.
    cells.push_back(configCell("drstrange", rngSpec(5120.0),
                               [](sim::SimConfig &cfg) {
                                   cfg.mechanism =
                                       *trng::TrngMechanism::byName("quac");
                               }));
    workloads::WorkloadSpec svc;
    svc.name = "svc-poisson";
    cells.push_back(configCell("greedy", svc, enableService));
    svc.name = "svc-faulty";
    cells.push_back(configCell("drstrange", svc, [](sim::SimConfig &cfg) {
        enableService(cfg);
        cfg.fault.models = "bitflip,weak-cell,stuck-row";
        cfg.fault.weakCells = 8;
        cfg.fault.stuckRows = 2;
        cfg.fault.monitor = true;
    }));
    workloads::WorkloadSpec soplex = dualSpec("soplex");
    soplex.name = "2rank";
    cells.push_back(configCell("drstrange", soplex,
                               [](sim::SimConfig &cfg) {
                                   cfg.geometry.ranksPerChannel = 2;
                                   cfg.addressMapping =
                                       "row-bank-col-rank-ch";
                               }));

    sim::SweepRunner sweep(tinyConfig(), /*jobs=*/4);
    ASSERT_EQ(sweep.jobs(), 4u);
    const auto results = sweep.run(cells);
    ASSERT_EQ(results.size(), cells.size());

    sim::Runner serial(tinyConfig());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        ASSERT_TRUE(results[i].ok) << results[i].error;
        const auto ref =
            cells[i].config ? serial.run(*cells[i].config, cells[i].spec)
                            : serial.run(cells[i].design, cells[i].spec);
        EXPECT_EQ(metricTuple(results[i].result), metricTuple(ref))
            << "cell " << i << " (" << cells[i].design << "/"
            << cells[i].spec.name << ")";
        EXPECT_GE(results[i].wallMs, 0.0);
    }
    // The tier cells really exercised their subsystems.
    const std::size_t tiers = designs.size() * specs.size();
    EXPECT_TRUE(results[tiers + 1].result.service.has_value());
    ASSERT_TRUE(results[tiers + 2].result.fault.has_value());
    EXPECT_GT(results[tiers + 2].result.fault->roundsAudited, 0u);
}

TEST(SweepRunner, RepeatedParallelRunsAreDeterministic)
{
    const auto cells = sim::SweepRunner::grid(
        {"drstrange"}, {dualSpec("mcf"), dualSpec("soplex")});
    sim::SweepRunner a(tinyConfig(), 2), b(tinyConfig(), 2);
    const auto ra = a.run(cells);
    const auto rb = b.run(cells);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i)
        EXPECT_EQ(metricTuple(ra[i].result), metricTuple(rb[i].result));
}

TEST(SweepRunner, FailedCellCarriesErrorAndOthersStillRun)
{
    std::vector<sim::SweepRunner::Cell> cells =
        sim::SweepRunner::grid({"drstrange", "no-such-design"},
                               {dualSpec("mcf")});
    sim::SweepRunner sweep(tinyConfig(), 2);
    const auto results = sweep.run(cells);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(results[0].outcome, "ok");
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("unknown design"), std::string::npos)
        << results[1].error;
    // A deterministic throw fails its one bounded retry too.
    EXPECT_EQ(results[1].outcome, "error");
}

TEST(SweepRunner, ExplicitConfigCellOverridesBase)
{
    sim::SimConfig cfg = tinyConfig();
    cfg.bufferEntries = 4;
    cfg.seed = 7;
    const sim::SimulationBuilder b{cfg};
    sim::SweepRunner::Cell cell = b.buildSweepCell(dualSpec("mcf"));
    ASSERT_TRUE(cell.config.has_value());
    EXPECT_EQ(cell.config->bufferEntries, 4u);
    EXPECT_EQ(cell.config->seed, 7u);

    // The sweep's own base config (different seed) must not leak into
    // the explicit-config cell.
    sim::SweepRunner sweep(tinyConfig(), 1);
    const auto results = sweep.run({cell});
    ASSERT_TRUE(results[0].ok) << results[0].error;
    sim::Runner serial(b.config());
    const auto ref = serial.run(b.config(), cell.spec);
    EXPECT_EQ(metricTuple(results[0].result), metricTuple(ref));
}

TEST(SweepRunner, DefaultJobsHonorsDsJobsEnv)
{
#ifndef _WIN32
    setenv("DS_JOBS", "3", /*overwrite=*/1);
    EXPECT_EQ(sim::SweepRunner::defaultJobs(), 3u);
    // Unparseable and zero overrides fall back to >= 1 workers.
    setenv("DS_JOBS", "banana", 1);
    EXPECT_GE(sim::SweepRunner::defaultJobs(), 1u);
    setenv("DS_JOBS", "0", 1);
    EXPECT_GE(sim::SweepRunner::defaultJobs(), 1u);
    unsetenv("DS_JOBS");
#endif
    EXPECT_GE(sim::SweepRunner::defaultJobs(), 1u);
}

TEST(SweepRunner, MoreJobsThanCellsIsFine)
{
    sim::SweepRunner sweep(tinyConfig(), 16);
    const auto results =
        sweep.run(sim::SweepRunner::grid({"drstrange"}, {dualSpec("mcf")}));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
}
