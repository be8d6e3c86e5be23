/**
 * @file
 * Tests for the workload layer: the 43-application profile table, the
 * synthetic trace generator's statistical fidelity, the RNG benchmarks,
 * and workload-mix construction.
 */

#include <gtest/gtest.h>

#include <set>

#include "dram/address_mapper.h"
#include "workloads/app_profile.h"
#include "workloads/mixes.h"
#include "workloads/rng_benchmark.h"
#include "workloads/synthetic_trace.h"

using namespace dstrange;
using namespace dstrange::workloads;

TEST(AppProfile, TableHas43UniqueApplications)
{
    const auto &table = appTable();
    EXPECT_EQ(table.size(), 43u);
    std::set<std::string> names;
    for (const AppProfile &p : table)
        names.insert(p.name);
    EXPECT_EQ(names.size(), 43u);
}

TEST(AppProfile, CategoriesArePopulated)
{
    EXPECT_EQ(appsByCategory('L').size(), 20u);
    EXPECT_EQ(appsByCategory('M').size(), 12u);
    EXPECT_EQ(appsByCategory('H').size(), 11u);
}

TEST(AppProfile, CategoryBoundariesMatchPaper)
{
    for (const AppProfile &p : appTable()) {
        if (p.mpki < 1.0)
            EXPECT_EQ(p.category(), 'L') << p.name;
        else if (p.mpki < 10.0)
            EXPECT_EQ(p.category(), 'M') << p.name;
        else
            EXPECT_EQ(p.category(), 'H') << p.name;
    }
}

TEST(AppProfile, PlottedAppsExistAndRiseInIntensity)
{
    const auto &plotted = paperPlottedApps();
    EXPECT_EQ(plotted.size(), 23u);
    double last_mpki = 0.0;
    for (const std::string &name : plotted) {
        const AppProfile &p = appByName(name);
        EXPECT_GT(p.mpki, last_mpki) << name;
        last_mpki = p.mpki;
        EXPECT_NE(p.category(), 'L') << name;
    }
}

TEST(AppProfile, UnknownNameThrows)
{
    EXPECT_THROW(appByName("not-an-app"), std::out_of_range);
}

class SyntheticTraceTest : public ::testing::Test
{
  protected:
    dram::DramGeometry geom;

    /** Empirical stats over n ops of an app's trace. */
    struct Empirical
    {
        double mpki;
        double readFraction;
        double seqFraction;
    };

    Empirical
    sample(const std::string &app, unsigned n = 50000)
    {
        SyntheticTrace trace(appByName(app), geom, 0, 1);
        std::uint64_t instrs = 0, reads = 0, seq = 0;
        Addr prev = 0;
        for (unsigned i = 0; i < n; ++i) {
            const cpu::TraceOp op = trace.next();
            instrs += op.computeInstrs + 1;
            reads += op.type == mem::ReqType::Read;
            if (i > 0 && op.addr == prev + kLineBytes)
                ++seq;
            prev = op.addr;
        }
        Empirical e;
        e.mpki = static_cast<double>(n) /
                 (static_cast<double>(instrs) / 1000.0);
        e.readFraction = static_cast<double>(reads) / n;
        e.seqFraction = static_cast<double>(seq) / (n - 1);
        return e;
    }
};

TEST_F(SyntheticTraceTest, MpkiMatchesProfile)
{
    for (const std::string app : {"ycsb3", "soplex", "mcf", "gcc"}) {
        const Empirical e = sample(app);
        const double target = appByName(app).mpki;
        EXPECT_NEAR(e.mpki, target, target * 0.15) << app;
    }
}

TEST_F(SyntheticTraceTest, ReadFractionMatchesProfile)
{
    for (const std::string app : {"lbm", "libq", "tpcc64"}) {
        const Empirical e = sample(app);
        EXPECT_NEAR(e.readFraction, appByName(app).readFraction, 0.03)
            << app;
    }
}

TEST_F(SyntheticTraceTest, RowLocalityMatchesProfile)
{
    for (const std::string app : {"libq", "mcf", "jp2d"}) {
        const Empirical e = sample(app);
        EXPECT_NEAR(e.seqFraction, appByName(app).rowLocality, 0.05)
            << app;
    }
}

TEST_F(SyntheticTraceTest, DeterministicPerSeedAndDivergentAcrossSeeds)
{
    SyntheticTrace a(appByName("mcf"), geom, 0, 7);
    SyntheticTrace b(appByName("mcf"), geom, 0, 7);
    SyntheticTrace c(appByName("mcf"), geom, 0, 8);
    bool diverged = false;
    for (int i = 0; i < 1000; ++i) {
        const cpu::TraceOp oa = a.next(), ob = b.next(), oc = c.next();
        ASSERT_EQ(oa.addr, ob.addr);
        ASSERT_EQ(oa.computeInstrs, ob.computeInstrs);
        diverged |= oa.addr != oc.addr;
    }
    EXPECT_TRUE(diverged);
}

TEST_F(SyntheticTraceTest, CoresGetDisjointRegions)
{
    SyntheticTrace a(appByName("mcf"), geom, 0, 7);
    SyntheticTrace b(appByName("mcf"), geom, 1, 7);
    std::set<Addr> rows_a, rows_b;
    const dram::AddressMapping mapper(geom);
    for (int i = 0; i < 2000; ++i) {
        rows_a.insert(mapper.decode(a.next().addr).row);
        rows_b.insert(mapper.decode(b.next().addr).row);
    }
    // Some overlap is possible at region boundaries, but the bulk of
    // the row sets must be disjoint.
    std::vector<Addr> common;
    std::set_intersection(rows_a.begin(), rows_a.end(), rows_b.begin(),
                          rows_b.end(), std::back_inserter(common));
    EXPECT_LT(common.size(), rows_a.size() / 4);
}

TEST_F(SyntheticTraceTest, AddressesWithinCapacity)
{
    SyntheticTrace t(appByName("tpch2"), geom, 3, 5);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(t.next().addr, geom.capacityBytes());
}

TEST(RngBenchmark, GapMatchesThroughputMath)
{
    // 5120 Mb/s = 80M requests/s; 12e9 instr/s / 80M = 150 instructions.
    EXPECT_EQ(RngBenchmark::gapForThroughput(5120.0), 150u);
    EXPECT_EQ(RngBenchmark::gapForThroughput(640.0), 1200u);
    EXPECT_EQ(RngBenchmark::gapForThroughput(10240.0), 75u);
}

TEST(RngBenchmark, MostlyRngRequestsWithLightReads)
{
    dram::DramGeometry geom;
    RngBenchmark bench(5120.0, geom, 3);
    unsigned rng = 0, reads = 0;
    for (int i = 0; i < 10000; ++i) {
        const cpu::TraceOp op = bench.next();
        EXPECT_EQ(op.computeInstrs, bench.instrGap());
        if (op.type == mem::ReqType::Rng)
            ++rng;
        else
            ++reads;
    }
    EXPECT_GT(rng, 9000u);
    EXPECT_GT(reads, 0u);
}

TEST(Mixes, DualCoreMixesCoverAllApps)
{
    const auto mixes = dualCoreMixes(5120.0);
    EXPECT_EQ(mixes.size(), 43u);
    for (const auto &m : mixes) {
        EXPECT_EQ(m.apps.size(), 1u);
        EXPECT_DOUBLE_EQ(m.rngThroughputMbps, 5120.0);
    }
}

TEST(Mixes, PlottedMixesFollowPaperOrder)
{
    const auto mixes = dualCorePlottedMixes(640.0);
    ASSERT_EQ(mixes.size(), 23u);
    EXPECT_EQ(mixes.front().apps[0], "ycsb3");
    EXPECT_EQ(mixes.back().apps[0], "h264d");
}

TEST(Mixes, FourCoreGroupsRespectCategories)
{
    const auto mixes = fourCoreGroups(1);
    EXPECT_EQ(mixes.size(), 40u);
    for (const auto &m : mixes) {
        ASSERT_EQ(m.apps.size(), 3u);
        unsigned highs = 0;
        for (const auto &app : m.apps) {
            const char cat = appByName(app).category();
            EXPECT_TRUE(cat == 'L' || cat == 'H');
            highs += cat == 'H';
        }
        const unsigned expected_high =
            m.group == "LLLS" ? 0 : m.group == "LLHS" ? 1
                                : m.group == "LHHS"   ? 2
                                                      : 3;
        EXPECT_EQ(highs, expected_high) << m.name;
    }
}

TEST(Mixes, MultiCoreGroupsHaveRequestedShape)
{
    for (unsigned cores : {8u, 16u}) {
        for (char cat : {'L', 'M', 'H'}) {
            const auto mixes = multiCoreCategoryGroup(cores, cat, 2);
            EXPECT_EQ(mixes.size(), 10u);
            for (const auto &m : mixes) {
                EXPECT_EQ(m.apps.size(), cores - 1);
                for (const auto &app : m.apps)
                    EXPECT_EQ(appByName(app).category(), cat) << m.name;
            }
        }
    }
}

TEST(Mixes, MixConstructionIsDeterministic)
{
    const auto a = fourCoreGroups(5);
    const auto b = fourCoreGroups(5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].apps, b[i].apps);
}
