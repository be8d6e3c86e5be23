/**
 * @file
 * Property-based tests: invariants that must hold across the whole
 * design/workload/configuration space, exercised with parameterized
 * gtest sweeps.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include "common/stats_util.h"
#include "sim/design_registry.h"
#include "sim/runner.h"

using namespace dstrange;
using namespace dstrange::sim;

namespace {

SimConfig
tinyConfig()
{
    SimConfig cfg;
    cfg.instrBudget = 30000;
    return cfg;
}

workloads::WorkloadSpec
mix(const std::string &app, double mbps = 5120.0)
{
    workloads::WorkloadSpec spec;
    spec.name = app + "+rng";
    spec.apps = {app};
    spec.rngThroughputMbps = mbps;
    return spec;
}

/**
 * Test parameter naming one kPaperDesigns row by its index. A one-byte
 * index rather than the row itself, so the printed parameter that
 * gtest embeds in each generated test name stays short and stable.
 */
struct PaperDesign
{
    std::uint8_t index;

    const DesignPreset &row() const { return kPaperDesigns[index]; }
    const char *key() const { return row().key; }
};

PaperDesign
paperDesign(std::string_view key)
{
    for (std::uint8_t i = 0; i < kPaperDesigns.size(); ++i)
        if (key == kPaperDesigns[i].key)
            return {i};
    throw std::out_of_range("no paper design '" + std::string(key) + "'");
}

std::vector<PaperDesign>
allPaperDesigns()
{
    std::vector<PaperDesign> all;
    for (std::uint8_t i = 0; i < kPaperDesigns.size(); ++i)
        all.push_back({i});
    return all;
}

std::string
designLabel(PaperDesign d)
{
    std::string s = d.row().displayName;
    for (char &c : s)
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

} // namespace

// ---------------------------------------------------------------------
// Property: every design completes every workload type, deterministically,
// with sane metric ranges.
// ---------------------------------------------------------------------

class DesignProperty
    : public ::testing::TestWithParam<std::tuple<PaperDesign, const char *>>
{
};

TEST_P(DesignProperty, RunsCompleteDeterministicallyWithSaneMetrics)
{
    const auto [design, app] = GetParam();
    Runner r1(tinyConfig()), r2(tinyConfig());

    const auto a = r1.run(design.key(), mix(app));
    const auto b = r2.run(design.key(), mix(app));

    // Determinism.
    EXPECT_EQ(a.busCycles, b.busCycles);
    EXPECT_DOUBLE_EQ(a.unfairnessIndex, b.unfairnessIndex);

    // Sanity ranges.
    EXPECT_GE(a.unfairnessIndex, 1.0);
    EXPECT_GE(a.bufferServeRate, 0.0);
    EXPECT_LE(a.bufferServeRate, 1.0);
    EXPECT_GT(a.busCycles, 0u);
    for (const auto &core : a.cores) {
        EXPECT_GT(core.slowdown, 0.1) << core.app;
        EXPECT_LT(core.slowdown, 100.0) << core.app;
        EXPECT_GT(core.ipcShared, 0.0) << core.app;
        EXPECT_LE(core.ipcShared, 3.0) << core.app;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDesignsAndApps, DesignProperty,
    ::testing::Combine(
        ::testing::ValuesIn(allPaperDesigns()),
        ::testing::Values("ycsb1", "soplex", "lbm", "gcc")),
    [](const auto &info) {
        return designLabel(std::get<0>(info.param)) + "_" +
               std::get<1>(info.param);
    });

// ---------------------------------------------------------------------
// Property: buffer serve rate grows (weakly) with buffer size, and every
// size is functional (Fig. 10's underlying invariant).
// ---------------------------------------------------------------------

class BufferSizeProperty : public ::testing::TestWithParam<const char *>
{
};

TEST_P(BufferSizeProperty, ServeRateWeaklyIncreasesWithBufferSize)
{
    const std::string app = GetParam();
    double last_rate = -0.05;
    for (unsigned entries : {1u, 4u, 16u, 64u}) {
        SimConfig cfg = tinyConfig();
        cfg.bufferEntries = entries;
        Runner runner(cfg);
        const auto res = runner.run("drstrange-nopred", mix(app));
        EXPECT_GE(res.bufferServeRate, last_rate - 0.05)
            << app << " entries=" << entries;
        last_rate = res.bufferServeRate;
    }
}

INSTANTIATE_TEST_SUITE_P(Apps, BufferSizeProperty,
                         ::testing::Values("ycsb2", "cactus", "zeusmp"));

// ---------------------------------------------------------------------
// Property: RNG intensity monotonically pressures the baseline system
// (Fig. 1's underlying invariant).
// ---------------------------------------------------------------------

class IntensityProperty : public ::testing::TestWithParam<const char *>
{
};

TEST_P(IntensityProperty, BaselineSlowdownGrowsWithRngThroughput)
{
    const std::string app = GetParam();
    Runner runner(tinyConfig());
    double last = 0.0;
    for (double mbps : {640.0, 1280.0, 2560.0, 5120.0}) {
        const auto res =
            runner.run("oblivious", mix(app, mbps));
        // Weakly monotone: interference saturates at high intensity,
        // so allow small regressions within noise.
        const double sd = res.avgNonRngSlowdown();
        EXPECT_GE(sd, last * 0.95) << app << " " << mbps;
        last = sd;
    }
}

INSTANTIATE_TEST_SUITE_P(Apps, IntensityProperty,
                         ::testing::Values("sphinx3", "soplex", "mcf"));

// ---------------------------------------------------------------------
// Property: TRNG mechanism throughput sweep behaves like Fig. 2 — more
// TRNG throughput never makes the baseline dramatically worse, and the
// low end is clearly worse than the high end.
// ---------------------------------------------------------------------

TEST(ThroughputSweepProperty, LowCapacityHurtsMost)
{
    std::vector<double> slowdowns;
    for (double mbps : {200.0, 800.0, 3200.0, 6400.0}) {
        SimConfig cfg = tinyConfig();
        cfg.mechanism = trng::TrngMechanism::withSystemThroughput(mbps, 4);
        Runner runner(cfg);
        const auto res =
            runner.run("oblivious", mix("soplex"));
        slowdowns.push_back(res.avgNonRngSlowdown());
    }
    EXPECT_GT(slowdowns.front(), slowdowns.back());
}

// ---------------------------------------------------------------------
// Property: the starvation-prevention stall limit is respected for any
// priority assignment.
// ---------------------------------------------------------------------

class PriorityProperty
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(PriorityProperty, AllCoresFinishUnderAnyPriorityAssignment)
{
    const auto [p0, p1] = GetParam();
    SimConfig cfg = tinyConfig();
    cfg.priorities = {p0, p1};
    Runner runner(cfg);
    const auto res = runner.run("drstrange", mix("tpch2"));
    // Both applications made it to their budget: nobody starved.
    for (const auto &core : res.cores)
        EXPECT_LT(core.slowdown, 50.0);
}

INSTANTIATE_TEST_SUITE_P(Assignments, PriorityProperty,
                         ::testing::Values(std::make_pair(0, 0),
                                           std::make_pair(5, 0),
                                           std::make_pair(0, 5),
                                           std::make_pair(3, 3)));

// ---------------------------------------------------------------------
// Property: bit conservation — served random bits never exceed harvested
// bits plus buffered/staged credit (no random numbers out of thin air).
// ---------------------------------------------------------------------

class ConservationProperty : public ::testing::TestWithParam<PaperDesign>
{
};

TEST_P(ConservationProperty, ServedBitsAreBackedByGeneratedBits)
{
    Runner runner(tinyConfig());
    const auto res = runner.run(GetParam().key(), mix("ycsb0"));
    const auto &s = res.mcStats;
    const double served_bits =
        64.0 * (s.rngServedFromBuffer + s.rngServedFromStaging +
                s.rngJobsCompleted);
    // Engine-produced bits + oracle deposits must cover all serves. The
    // greedy design's deposits are free, so only check non-greedy ones.
    if (std::string_view(GetParam().key()) != "greedy") {
        EXPECT_GT(served_bits, 0.0);
        EXPECT_GE(static_cast<double>(res.mcStats.rngRequests) * 64.0,
                  served_bits);
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Designs, ConservationProperty,
                         ::testing::Values(paperDesign("oblivious"),
                                           paperDesign("drstrange"),
                                           paperDesign("drstrange-rl")),
                         [](const auto &info) {
                             return designLabel(info.param);
                         });

// ---------------------------------------------------------------------
// Property: multi-core scaling — unfairness and slowdown metrics stay
// well-formed from 2 to 8 cores for each design.
// ---------------------------------------------------------------------

class ScalingProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ScalingProperty, MetricsWellFormedAtScale)
{
    const unsigned cores = GetParam();
    SimConfig cfg = tinyConfig();
    cfg.instrBudget = 20000;
    Runner runner(cfg);
    const auto groups = workloads::multiCoreCategoryGroup(cores, 'M', 7);
    const auto res = runner.run("drstrange", groups[0]);
    EXPECT_EQ(res.cores.size(), cores);
    EXPECT_GE(res.unfairnessIndex, 1.0);
    EXPECT_GT(res.weightedSpeedupNonRng, 0.0);
    EXPECT_LE(res.weightedSpeedupNonRng,
              static_cast<double>(cores - 1) + 0.1);
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, ScalingProperty,
                         ::testing::Values(2u, 4u, 8u));

// ---------------------------------------------------------------------
// Property: an independent shadow validator finds no JEDEC timing
// violations in the command streams of full end-to-end runs, for every
// system design.
// ---------------------------------------------------------------------

#include "timing_checker.h"
#include "workloads/rng_benchmark.h"
#include "workloads/synthetic_trace.h"

class TimingComplianceProperty
    : public ::testing::TestWithParam<PaperDesign>
{
};

TEST_P(TimingComplianceProperty, NoViolationsInEndToEndRun)
{
    SimConfig cfg = tinyConfig();
    DesignRegistry::instance().apply(GetParam().key(), cfg);

    std::vector<std::unique_ptr<dstrange::cpu::TraceSource>> traces;
    traces.push_back(std::make_unique<workloads::SyntheticTrace>(
        workloads::appByName("soplex"), cfg.geometry, 0, cfg.seed));
    traces.push_back(std::make_unique<workloads::RngBenchmark>(
        5120.0, cfg.geometry, cfg.seed + 1));
    System sys(cfg, std::move(traces));

    std::vector<std::unique_ptr<testutil::TimingChecker>> checkers;
    for (unsigned ch = 0; ch < sys.mc().numChannels(); ++ch) {
        checkers.push_back(std::make_unique<testutil::TimingChecker>(
            cfg.timings, cfg.geometry.banksPerChannel(),
            cfg.geometry.banksPerRank));
        checkers.back()->attach(sys.mc().channelMutable(ch));
    }

    sys.run();

    std::uint64_t total = 0;
    for (const auto &checker : checkers) {
        for (const std::string &violation : checker->violations())
            ADD_FAILURE() << violation;
        total += checker->commandsChecked();
    }
    EXPECT_GT(total, 1000u); // the run exercised real traffic
}

INSTANTIATE_TEST_SUITE_P(Designs, TimingComplianceProperty,
                         ::testing::Values(paperDesign("oblivious"),
                                           paperDesign("greedy"),
                                           paperDesign("drstrange"),
                                           paperDesign("bliss"),
                                           paperDesign("frfcfs")),
                         [](const auto &info) {
                             return designLabel(info.param);
                         });

// ---------------------------------------------------------------------
// Property: refresh happens on schedule in long runs (the interval
// between REF commands never exceeds ~2x tREFI even under RNG load).
// ---------------------------------------------------------------------

TEST(RefreshProperty, RefreshKeepsPaceUnderRngLoad)
{
    SimConfig cfg = tinyConfig();
    DesignRegistry::instance().apply("oblivious", cfg);
    cfg.instrBudget = 100000;

    std::vector<std::unique_ptr<dstrange::cpu::TraceSource>> traces;
    traces.push_back(std::make_unique<workloads::RngBenchmark>(
        5120.0, cfg.geometry, cfg.seed));
    System sys(cfg, std::move(traces));

    std::vector<Cycle> ref_times;
    sys.mc().channelMutable(0).setCommandObserver(
        [&](dstrange::dram::DramCmd cmd, unsigned, Cycle now,
            std::int64_t) {
            if (cmd == dstrange::dram::DramCmd::Ref)
                ref_times.push_back(now);
        });
    sys.run();

    ASSERT_GE(ref_times.size(), 2u);
    for (std::size_t i = 1; i < ref_times.size(); ++i) {
        EXPECT_LT(ref_times[i] - ref_times[i - 1],
                  2 * cfg.timings.tREFI)
            << "refresh " << i << " late";
    }
}

// ---------------------------------------------------------------------
// Property: multi-rank channels obey the same JEDEC constraints —
// including the rank-scoped tRRD/tFAW, per-rank refresh, and the
// cross-rank tRTRS bus turnaround — for every address mapping.
// ---------------------------------------------------------------------

#include "dram/address_mapper.h"

TEST(MultiRankTimingProperty, NoViolationsAcrossRanksAndMappings)
{
    for (unsigned ranks : {2u, 4u}) {
        for (const std::string mapping : dstrange::dram::kMappings) {
            SimConfig cfg = tinyConfig();
            DesignRegistry::instance().apply("drstrange", cfg);
            cfg.geometry.ranksPerChannel = ranks;
            cfg.addressMapping = mapping;

            std::vector<std::unique_ptr<dstrange::cpu::TraceSource>>
                traces;
            traces.push_back(std::make_unique<workloads::SyntheticTrace>(
                workloads::appByName("soplex"), cfg.geometry, 0,
                cfg.seed));
            traces.push_back(std::make_unique<workloads::RngBenchmark>(
                5120.0, cfg.geometry, cfg.seed + 1));
            System sys(cfg, std::move(traces));

            std::vector<std::unique_ptr<testutil::TimingChecker>>
                checkers;
            for (unsigned ch = 0; ch < sys.mc().numChannels(); ++ch) {
                checkers.push_back(
                    std::make_unique<testutil::TimingChecker>(
                        cfg.timings, cfg.geometry.banksPerChannel(),
                        cfg.geometry.banksPerRank));
                checkers.back()->attach(sys.mc().channelMutable(ch));
            }
            sys.run();

            std::uint64_t total = 0;
            for (const auto &checker : checkers) {
                for (const std::string &violation :
                     checker->violations())
                    ADD_FAILURE()
                        << violation << " (ranks=" << ranks
                        << " mapping=" << mapping << ")";
                total += checker->commandsChecked();
            }
            EXPECT_GT(total, 1000u) << "ranks=" << ranks
                                    << " mapping=" << mapping;
        }
    }
}

// ---------------------------------------------------------------------
// Property: every address mapping is an exact bijection
// between line-aligned addresses and DRAM coordinates, over randomized
// geometries (encode inverts decode, fields stay in bounds, and the
// whole address space maps without collisions).
// ---------------------------------------------------------------------

#include <random>
#include <set>

TEST(MappingProperty, EncodeInvertsDecodeOnRandomGeometries)
{
    std::mt19937_64 prng(0xD5u);
    for (int iter = 0; iter < 40; ++iter) {
        dstrange::dram::DramGeometry g;
        g.channels = 1 + prng() % 4;
        g.ranksPerChannel = 1 + prng() % 4;
        g.banksPerRank = 1u << (prng() % 4); // pow2: all mappings apply
        g.rowsPerBank = 2 + prng() % 64;
        g.rowBytes = kLineBytes * (1 + prng() % 8);
        const std::uint64_t lines = g.capacityBytes() / kLineBytes;

        for (const std::string key : dstrange::dram::kMappings) {
            const dstrange::dram::AddressMapping mapping(g, key);
            for (int i = 0; i < 200; ++i) {
                const Addr addr = (prng() % lines) * kLineBytes;
                const dstrange::dram::DramCoord c =
                    mapping.decode(addr);
                ASSERT_LT(c.channel, g.channels) << key;
                ASSERT_LT(c.rank, g.ranksPerChannel) << key;
                ASSERT_LT(c.bank, g.banksPerChannel()) << key;
                ASSERT_EQ(c.rank, c.bank / g.banksPerRank) << key;
                ASSERT_LT(c.row, g.rowsPerBank) << key;
                ASSERT_LT(c.col, g.colsPerRow()) << key;
                ASSERT_EQ(mapping.encode(c), addr) << key;

                // Callers that fill only the flat bank slot (rank left
                // zero) must encode to the same address.
                dstrange::dram::DramCoord legacy = c;
                legacy.rank = 0;
                ASSERT_EQ(mapping.encode(legacy), addr) << key;
            }
        }
    }
}

TEST(MappingProperty, FullAddressSpaceIsBijective)
{
    dstrange::dram::DramGeometry g;
    g.channels = 3;
    g.ranksPerChannel = 2;
    g.banksPerRank = 4;
    g.rowsPerBank = 5;
    g.rowBytes = kLineBytes * 2;
    const std::uint64_t lines = g.capacityBytes() / kLineBytes;

    for (const std::string key : dstrange::dram::kMappings) {
        const dstrange::dram::AddressMapping mapping(g, key);
        std::set<std::tuple<unsigned, unsigned, unsigned, unsigned>>
            seen;
        for (std::uint64_t line = 0; line < lines; ++line) {
            const Addr addr = line * kLineBytes;
            const dstrange::dram::DramCoord c = mapping.decode(addr);
            seen.emplace(c.channel, c.bank, c.row, c.col);
            ASSERT_EQ(mapping.encode(c), addr) << key;
        }
        EXPECT_EQ(seen.size(), lines) << key << ": decode collides";
    }
}

TEST(MappingProperty, PermuteBankRejectsNonPowerOfTwoBanks)
{
    dstrange::dram::DramGeometry g;
    g.banksPerRank = 3;
    EXPECT_THROW(dstrange::dram::AddressMapping(g, "permute-bank"),
                 std::invalid_argument);
}

TEST(MappingProperty, RankInterleavingSpreadsLinesAcrossRanks)
{
    dstrange::dram::DramGeometry g;
    g.ranksPerChannel = 2;
    const dstrange::dram::AddressMapping mapping(g, "row-bank-col-rank-ch");
    // The rank digit sits directly above the channel digit, so lines
    // one channel-stride apart land on alternating ranks.
    const Addr stride = static_cast<Addr>(g.channels) * kLineBytes;
    EXPECT_EQ(mapping.decode(0).rank, 0u);
    EXPECT_EQ(mapping.decode(stride).rank, 1u);
    EXPECT_EQ(mapping.decode(2 * stride).rank, 0u);
    // The default mapping keeps them on one rank instead.
    const dstrange::dram::AddressMapping deflt(g);
    EXPECT_EQ(deflt.decode(0).rank, 0u);
    EXPECT_EQ(deflt.decode(stride).rank, 0u);
}

namespace {

/**
 * Frozen reference for the default "row-bank-col-ch" mapping: a
 * straight-line Row:Rank:Bank:Column:Channel digit chain, written out
 * by hand rather than through AddressMapping's generic digit loop.
 */
dstrange::dram::DramCoord
referenceRowBankColChDecode(const dstrange::dram::DramGeometry &g,
                            Addr addr)
{
    std::uint64_t line = addr / kLineBytes;
    dstrange::dram::DramCoord coord;
    coord.channel = static_cast<unsigned>(line % g.channels);
    line /= g.channels;
    coord.col = static_cast<unsigned>(line % g.colsPerRow());
    line /= g.colsPerRow();
    const unsigned bank_in_rank =
        static_cast<unsigned>(line % g.banksPerRank);
    line /= g.banksPerRank;
    coord.rank = static_cast<unsigned>(line % g.ranksPerChannel);
    line /= g.ranksPerChannel;
    coord.bank = coord.rank * g.banksPerRank + bank_in_rank;
    coord.row = static_cast<unsigned>(line % g.rowsPerBank);
    return coord;
}

Addr
referenceRowBankColChEncode(const dstrange::dram::DramGeometry &g,
                            const dstrange::dram::DramCoord &coord)
{
    // A coord whose rank was left at 0 carries the rank in its flat
    // bank slot.
    const unsigned bank_in_rank = coord.bank % g.banksPerRank;
    const unsigned rank =
        coord.rank != 0 ? coord.rank : coord.bank / g.banksPerRank;
    std::uint64_t line = coord.row;
    line = line * g.ranksPerChannel + rank;
    line = line * g.banksPerRank + bank_in_rank;
    line = line * g.colsPerRow() + coord.col;
    line = line * g.channels + coord.channel;
    return line * kLineBytes;
}

} // namespace

TEST(MappingProperty, DefaultMatchesFrozenStraightLineReference)
{
    std::mt19937_64 prng(0x5EEDu);
    for (unsigned channels : {1u, 3u, 4u, 6u}) {
        for (unsigned ranks : {1u, 2u, 4u}) {
            dstrange::dram::DramGeometry g;
            g.channels = channels;
            g.ranksPerChannel = ranks;
            const dstrange::dram::AddressMapping mapping(g);
            for (int i = 0; i < 3000; ++i) {
                // Any byte address, not only line-aligned ones.
                const Addr addr = prng() % g.capacityBytes();
                const Addr line_addr = addr / kLineBytes * kLineBytes;
                const dstrange::dram::DramCoord ref =
                    referenceRowBankColChDecode(g, addr);
                ASSERT_EQ(mapping.decode(addr), ref)
                    << "channels=" << channels << " ranks=" << ranks
                    << " addr=" << addr;
                ASSERT_EQ(mapping.encode(ref),
                          referenceRowBankColChEncode(g, ref));

                // Rank-0 legacy coords: flat bank slot, rank unset.
                dstrange::dram::DramCoord legacy = ref;
                legacy.rank = 0;
                ASSERT_EQ(mapping.encode(legacy),
                          referenceRowBankColChEncode(g, legacy));
                ASSERT_EQ(mapping.encode(legacy), line_addr);
            }
        }
    }
}
