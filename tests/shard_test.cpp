/**
 * @file
 * Tests for the persistent alone-run cache: ResultStore round trips,
 * fingerprint/corruption fallback to recomputation, and WorkloadResult
 * JSON (de)serialization.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
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

namespace fs = std::filesystem;

namespace {

/** Small budget so each simulated cell finishes in milliseconds. */
sim::SimConfig
tinyConfig()
{
    sim::SimConfig cfg;
    cfg.instrBudget = 3000;
    return cfg;
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
    return out;
}

/** Fresh empty directory under the test temp root, removed on scope
 *  exit. */
class TempDir
{
  public:
    TempDir()
    {
        // gtest_discover_tests runs every case as its own process of
        // this binary, so a per-process counter alone collides across
        // parallel ctest jobs — qualify the name with the PID.
        static int counter = 0;
#ifdef _WIN32
        const int pid = _getpid();
#else
        const int pid = ::getpid();
#endif
        path = fs::path(::testing::TempDir()) /
               ("drstrange-shard-" + std::to_string(pid) + "-" +
                std::to_string(++counter));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string str() const { return path.string(); }

  private:
    fs::path path;
};

/** Cache data files in @p dir (everything but the .lock sentinel). */
std::vector<fs::path>
cacheFiles(const std::string &dir)
{
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().filename() != ".lock")
            files.push_back(entry.path());
    return files;
}

} // namespace

// --- Persistent alone-run cache -------------------------------------

TEST(ResultStore, AloneRoundTripIsExact)
{
    TempDir dir;
    sim::ResultStore store(dir.str());
    sim::AloneResult res;
    res.execCpuCycles = 123456.0;
    res.ipc = 1.0 / 3.0; // not representable in 6 digits
    res.mcpi = 0.1234567890123456789;
    const std::string key = "app|mcf|some-canonical-config";
    EXPECT_TRUE(store.storeAlone(key, res));
    EXPECT_EQ(store.stores(), 1u);

    const auto loaded = store.loadAlone(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->execCpuCycles, res.execCpuCycles);
    EXPECT_EQ(loaded->ipc, res.ipc); // bit-exact, not approximate
    EXPECT_EQ(loaded->mcpi, res.mcpi);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.misses(), 0u);

    EXPECT_FALSE(store.loadAlone("some-other-key").has_value());
    EXPECT_EQ(store.misses(), 1u);
}

TEST(ResultStore, SizeBoundEvictsLeastRecentlyUsed)
{
    TempDir dir;
    sim::ResultStore store(dir.str());
    EXPECT_EQ(store.maxBytesBound(), 0u); // Unlimited by default.

    sim::AloneResult res;
    res.execCpuCycles = 1000.0;
    res.ipc = 1.5;
    res.mcpi = 0.25;
    ASSERT_TRUE(store.storeAlone("key-a", res));
    const auto files = cacheFiles(dir.str());
    ASSERT_EQ(files.size(), 1u);
    const std::uint64_t one = fs::file_size(files[0]);

    // Budget for two files: storing a third evicts the stalest one.
    store.setMaxBytes(2 * one + one / 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(store.storeAlone("key-b", res));
    EXPECT_EQ(cacheFiles(dir.str()).size(), 2u);

    // Touch key-a via a hit so key-b becomes the LRU victim.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(store.loadAlone("key-a").has_value());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(store.storeAlone("key-c", res));

    EXPECT_EQ(cacheFiles(dir.str()).size(), 2u);
    EXPECT_TRUE(store.loadAlone("key-a").has_value());
    EXPECT_FALSE(store.loadAlone("key-b").has_value()); // Evicted.
    EXPECT_TRUE(store.loadAlone("key-c").has_value());
}

TEST(ResultStore, MaxBytesSeedsFromEnvironment)
{
    TempDir dir;
    ::setenv("DS_CACHE_MAX_MB", "3", 1);
    sim::ResultStore bounded(dir.str());
    ::unsetenv("DS_CACHE_MAX_MB");
    EXPECT_EQ(bounded.maxBytesBound(), 3ull * 1024 * 1024);
    sim::ResultStore unbounded(dir.str());
    EXPECT_EQ(unbounded.maxBytesBound(), 0u);
}

TEST(ResultStore, EvictionNeverCorruptsConcurrentReaders)
{
    TempDir dir;
    // Writer and readers use separate store handles on one directory,
    // modelling separate processes. The budget is tiny, so nearly every
    // store evicts; readers must only ever observe a clean hit with the
    // exact stored values or a clean miss — never a torn read or throw.
    sim::ResultStore writer(dir.str());
    sim::ResultStore reader(dir.str());

    auto resultFor = [](unsigned i) {
        sim::AloneResult r;
        r.execCpuCycles = 1000.0 + i;
        r.ipc = 1.0 / (i + 1);
        r.mcpi = 0.125 * i;
        return r;
    };
    auto keyFor = [](unsigned i) {
        return "evict-key-" + std::to_string(i);
    };

    constexpr unsigned kKeys = 64;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> verified{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&] {
            while (!stop.load()) {
                for (unsigned i = 0; i < kKeys; ++i) {
                    const auto got = reader.loadAlone(keyFor(i));
                    if (!got)
                        continue;
                    const sim::AloneResult want = resultFor(i);
                    ASSERT_EQ(got->execCpuCycles, want.execCpuCycles);
                    ASSERT_EQ(got->ipc, want.ipc);
                    ASSERT_EQ(got->mcpi, want.mcpi);
                    verified.fetch_add(1);
                }
            }
        });
    }

    ASSERT_TRUE(writer.storeAlone(keyFor(0), resultFor(0)));
    const auto first = cacheFiles(dir.str());
    ASSERT_EQ(first.size(), 1u);
    writer.setMaxBytes(4 * fs::file_size(first[0]));
    for (int round = 0; round < 3; ++round)
        for (unsigned i = 0; i < kKeys; ++i)
            ASSERT_TRUE(writer.storeAlone(keyFor(i), resultFor(i)));

    stop.store(true);
    for (std::thread &t : readers)
        t.join();
    EXPECT_GT(verified.load(), 0u);
    // The directory respects the budget after the churn.
    std::uint64_t total = 0;
    for (const fs::path &p : cacheFiles(dir.str()))
        total += fs::file_size(p);
    EXPECT_LE(total, writer.maxBytesBound());
}

TEST(ResultStore, RunnerPersistsAndRestoresBaselines)
{
    TempDir dir;
    // Cold: computes and writes back.
    auto store1 = std::make_shared<sim::ResultStore>(dir.str());
    sim::Runner cold(tinyConfig(), store1);
    const sim::AloneResult ref = cold.alone("mcf");
    EXPECT_EQ(store1->misses(), 1u);
    EXPECT_EQ(store1->stores(), 1u);
    // Second lookup in the same Runner hits the in-memory cache only.
    cold.alone("mcf");
    EXPECT_EQ(store1->hits(), 0u);

    // Warm: a fresh process (modelled by a fresh Runner + fresh store
    // handle on the same directory) restores the identical baseline
    // without recomputing.
    auto store2 = std::make_shared<sim::ResultStore>(dir.str());
    sim::Runner warm(tinyConfig(), store2);
    const sim::AloneResult &again = warm.alone("mcf");
    EXPECT_EQ(store2->hits(), 1u);
    EXPECT_EQ(store2->misses(), 0u);
    EXPECT_EQ(store2->stores(), 0u);
    EXPECT_EQ(again.execCpuCycles, ref.execCpuCycles);
    EXPECT_EQ(again.ipc, ref.ipc);
    EXPECT_EQ(again.mcpi, ref.mcpi);

    // And a store-less Runner agrees, so the cache changed nothing.
    sim::Runner plain(tinyConfig(), nullptr);
    const sim::AloneResult &independent = plain.alone("mcf");
    EXPECT_EQ(independent.ipc, ref.ipc);
}

TEST(ResultStore, SweepResultsIdenticalWithWarmCache)
{
    TempDir dir;
    const auto cells = sim::SweepRunner::grid(
        {"oblivious", "drstrange"}, {dualSpec("mcf"), dualSpec("lbm")});

    sim::SweepRunner noCache(tinyConfig(), 2, nullptr);
    const auto ref = noCache.run(cells);

    sim::SweepRunner coldSweep(tinyConfig(), 2,
                               std::make_shared<sim::ResultStore>(
                                   dir.str()));
    const auto cold = coldSweep.run(cells);
    EXPECT_GT(coldSweep.runner().resultStore()->stores(), 0u);

    auto warmStore = std::make_shared<sim::ResultStore>(dir.str());
    sim::SweepRunner warmSweep(tinyConfig(), 2, warmStore);
    const auto warm = warmSweep.run(cells);
    EXPECT_GT(warmStore->hits(), 0u);
    EXPECT_EQ(warmStore->misses(), 0u); // nothing cached is recomputed

    for (std::size_t i = 0; i < cells.size(); ++i) {
        ASSERT_TRUE(ref[i].ok && cold[i].ok && warm[i].ok);
        EXPECT_EQ(metricTuple(cold[i].result), metricTuple(ref[i].result));
        EXPECT_EQ(metricTuple(warm[i].result), metricTuple(ref[i].result));
    }
}

TEST(ResultStore, FingerprintMismatchFallsBackToRecompute)
{
    TempDir dir;
    const std::string key = "app|mcf|cfg";
    sim::AloneResult res;
    res.execCpuCycles = 42.0;
    res.ipc = 2.0;
    res.mcpi = 0.5;

    sim::ResultStore old(dir.str(), "stale-fingerprint-v0");
    EXPECT_TRUE(old.storeAlone(key, res));

    // A store with the current fingerprint must treat the stale file
    // as a miss, not serve (or crash on) it.
    sim::ResultStore fresh(dir.str());
    EXPECT_FALSE(fresh.loadAlone(key).has_value());
    EXPECT_EQ(fresh.misses(), 1u);

    // The stale-stamped store still reads its own file.
    EXPECT_TRUE(old.loadAlone(key).has_value());
}

TEST(ResultStore, CorruptOrTruncatedFilesFallBackToRecompute)
{
    TempDir dir;
    sim::ResultStore store(dir.str());
    const std::string key = "app|mcf|cfg";
    sim::AloneResult res;
    res.execCpuCycles = 1.0;
    ASSERT_TRUE(store.storeAlone(key, res));
    const auto files = cacheFiles(dir.str());
    ASSERT_EQ(files.size(), 1u);

    for (const char *garbage :
         {"", "{\"schema\": \"drstrange-al", "not json at all",
          "{\"schema\": \"drstrange-alone-cache-v1\"}"}) {
        std::ofstream(files[0], std::ios::trunc) << garbage;
        EXPECT_FALSE(store.loadAlone(key).has_value())
            << "garbage: '" << garbage << "'";
    }

    // Recompute-and-store heals the slot.
    ASSERT_TRUE(store.storeAlone(key, res));
    EXPECT_TRUE(store.loadAlone(key).has_value());
}

TEST(ResultStore, FingerprintSeparatesEngineModes)
{
#ifndef _WIN32
    // Baselines computed under fast-forward must not be served to a
    // DS_FAST_FORWARD=0 validation run (and vice versa), even though
    // the two engines are lockstep-verified bit-identical.
    unsetenv("DS_FAST_FORWARD");
    const std::string ff = sim::ResultStore::buildFingerprint();
    setenv("DS_FAST_FORWARD", "0", /*overwrite=*/1);
    const std::string step1 = sim::ResultStore::buildFingerprint();
    unsetenv("DS_FAST_FORWARD");
    EXPECT_NE(ff, step1);
#else
    GTEST_SKIP() << "environment manipulation is POSIX-only here";
#endif
}

TEST(ResultStore, OpenFromEnvDefaultsOff)
{
#ifndef _WIN32
    unsetenv("DS_CACHE_DIR");
    EXPECT_EQ(sim::ResultStore::openFromEnv(), nullptr);
    TempDir dir;
    setenv("DS_CACHE_DIR", dir.str().c_str(), /*overwrite=*/1);
    const auto store = sim::ResultStore::openFromEnv();
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->dir(), dir.str());
    // An unusable directory degrades to no persistence (nullptr plus
    // a warning) instead of throwing out of Runner's constructor —
    // but explicit construction keeps the hard error.
    setenv("DS_CACHE_DIR", "/dev/null/not-a-directory", 1);
    EXPECT_EQ(sim::ResultStore::openFromEnv(), nullptr);
    EXPECT_NO_THROW(sim::Runner{tinyConfig()});
    EXPECT_THROW(sim::ResultStore("/dev/null/not-a-directory"),
                 std::runtime_error);
    unsetenv("DS_CACHE_DIR");
#else
    GTEST_SKIP() << "environment manipulation is POSIX-only here";
#endif
}

// --- WorkloadResult JSON --------------------------------------------

TEST(ResultStore, WorkloadResultJsonRoundTrip)
{
    sim::Runner runner(tinyConfig(), nullptr);
    runner.setCollectIdlePeriods(true);
    const auto ref = runner.run("drstrange", dualSpec("mcf"));

    const std::string text = sim::serializeWorkloadResult(ref);
    const auto back = sim::parseWorkloadResult(text);

    EXPECT_EQ(back.name, ref.name);
    EXPECT_EQ(back.group, ref.group);
    EXPECT_EQ(metricTuple(back), metricTuple(ref));
    EXPECT_EQ(back.busCycles, ref.busCycles);
    EXPECT_EQ(back.idlePeriods, ref.idlePeriods);
    const auto &mc = back.mcStats;
    const auto &mr = ref.mcStats;
    EXPECT_EQ(mc.readRequests, mr.readRequests);
    EXPECT_EQ(mc.writeRequests, mr.writeRequests);
    EXPECT_EQ(mc.rngRequests, mr.rngRequests);
    EXPECT_EQ(mc.rngServedFromBuffer, mr.rngServedFromBuffer);
    EXPECT_EQ(mc.rngServedFromStaging, mr.rngServedFromStaging);
    EXPECT_EQ(mc.rngJobsCompleted, mr.rngJobsCompleted);
    EXPECT_EQ(mc.readsCompleted, mr.readsCompleted);
    EXPECT_EQ(mc.sumReadLatency, mr.sumReadLatency);
    EXPECT_EQ(mc.sumRngLatency, mr.sumRngLatency);
    ASSERT_EQ(back.cores.size(), ref.cores.size());
    for (std::size_t i = 0; i < ref.cores.size(); ++i) {
        EXPECT_EQ(back.cores[i].app, ref.cores[i].app);
        EXPECT_EQ(back.cores[i].isRng, ref.cores[i].isRng);
    }
}

TEST(ResultStore, WorkloadResultParseRejectsMalformedInput)
{
    EXPECT_THROW(sim::parseWorkloadResult("{"), std::invalid_argument);
    EXPECT_THROW(sim::parseWorkloadResult("{}"), std::runtime_error);
    EXPECT_THROW(sim::parseWorkloadResult("[1, 2]"), std::runtime_error);
}
