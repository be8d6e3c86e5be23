/**
 * @file
 * Tests for the TRNG substrate: mechanism parameter math, the simulated
 * entropy source, statistical bitstream quality (and the fused monobit
 * plus runs audit against the two separate tests), and the per-channel
 * RNG-mode engine state machine.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "dram/dram_channel.h"
#include "fault/fault_model.h"
#include "trng/bit_quality.h"
#include "trng/entropy_source.h"
#include "trng/rng_engine.h"
#include "trng/trng_mechanism.h"

using namespace dstrange;
using namespace dstrange::trng;

TEST(TrngMechanism, DRangeThroughputMatchesCalibration)
{
    const TrngMechanism m = TrngMechanism::dRange();
    EXPECT_NEAR(m.perChannelThroughputMbps(), 1280.0, 1.0);
    EXPECT_NEAR(m.systemThroughputMbps(4), 5120.0, 4.0);
}

TEST(TrngMechanism, QuacHasHigherThroughputAndLatency)
{
    const TrngMechanism d = TrngMechanism::dRange();
    const TrngMechanism q = TrngMechanism::quacTrng();
    EXPECT_GT(q.perChannelThroughputMbps(), d.perChannelThroughputMbps());
    EXPECT_GT(q.demandLatency(64, 4), d.demandLatency(64, 4));
    EXPECT_NEAR(q.perChannelThroughputMbps(), 3442.0, 5.0);
}

TEST(TrngMechanism, DemandLatencyScalesWithBitsAndChannels)
{
    const TrngMechanism m = TrngMechanism::dRange();
    // 64 bits over 4 channels: 2 rounds each.
    EXPECT_EQ(m.demandLatency(64, 4),
              m.switchInLatency + 2 * m.roundLatency + m.switchOutLatency);
    // One channel: 8 rounds.
    EXPECT_EQ(m.demandLatency(64, 1),
              m.switchInLatency + 8 * m.roundLatency + m.switchOutLatency);
    // More channels never increase latency.
    EXPECT_LE(m.demandLatency(64, 8), m.demandLatency(64, 4));
}

TEST(TrngMechanism, SweepMechanismHitsTargetSystemThroughput)
{
    for (double mbps : {200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0}) {
        const TrngMechanism m =
            TrngMechanism::withSystemThroughput(mbps, 4);
        EXPECT_NEAR(m.systemThroughputMbps(4), mbps, mbps * 0.01)
            << "target " << mbps;
        // Round latency is held at D-RaNGe's to isolate throughput.
        EXPECT_EQ(m.roundLatency, TrngMechanism::dRange().roundLatency);
    }
}

TEST(EntropySource, DeterministicAndCounted)
{
    EntropySource a(5), b(5);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.next64(), b.next64());
    EXPECT_EQ(a.totalBitsHarvested(), 6400u);
}

TEST(EntropySource, NextBytesSizesAndCounts)
{
    EntropySource src(7);
    const auto bytes = src.nextBytes(100);
    EXPECT_EQ(bytes.size(), 100u);
    // 100 bytes need 13 words internally.
    EXPECT_EQ(src.totalBitsHarvested(), 13u * 64u);
}

class BitQualityTest : public ::testing::Test
{
  protected:
    std::vector<std::uint8_t>
    randomBytes(std::size_t n, std::uint64_t seed)
    {
        EntropySource src(seed);
        return src.nextBytes(n);
    }
};

TEST_F(BitQualityTest, GoodSourcePassesAllTests)
{
    const auto bytes = randomBytes(1 << 16, 11);
    EXPECT_TRUE(monobitTest(bytes).pass);
    EXPECT_TRUE(runsTest(bytes).pass);
    EXPECT_TRUE(chiSquareByteTest(bytes).pass);
    EXPECT_TRUE(serialCorrelationTest(bytes).pass);
    EXPECT_GT(shannonEntropyPerByte(bytes), 7.99);
}

TEST_F(BitQualityTest, ConstantStreamFailsMonobit)
{
    const std::vector<std::uint8_t> zeros(1 << 14, 0x00);
    EXPECT_FALSE(monobitTest(zeros).pass);
    EXPECT_DOUBLE_EQ(shannonEntropyPerByte(zeros), 0.0);
}

TEST_F(BitQualityTest, AlternatingPatternFailsRunsTest)
{
    // 0x55 = 01010101: maximal run count, far above expectation.
    const std::vector<std::uint8_t> alt(1 << 14, 0x55);
    EXPECT_FALSE(runsTest(alt).pass);
}

TEST_F(BitQualityTest, BiasedStreamFailsChiSquare)
{
    auto bytes = randomBytes(1 << 16, 13);
    // Skew: force a quarter of the bytes to a single value.
    for (std::size_t i = 0; i < bytes.size(); i += 4)
        bytes[i] = 0xab;
    EXPECT_FALSE(chiSquareByteTest(bytes).pass);
}

TEST_F(BitQualityTest, SequentialBytesFailSerialCorrelation)
{
    std::vector<std::uint8_t> ramp(1 << 14);
    for (std::size_t i = 0; i < ramp.size(); ++i)
        ramp[i] = static_cast<std::uint8_t>(i);
    EXPECT_FALSE(serialCorrelationTest(ramp).pass);
}

namespace {

int
bitAt(std::span<const std::uint8_t> bytes, std::size_t i)
{
    return (bytes[i / 8] >> (i % 8)) & 1;
}

/** Bit-by-bit reference monobit: the definition the word-parallel
 *  library version must reproduce exactly. */
TestResult
referenceMonobit(std::span<const std::uint8_t> bytes)
{
    TestResult res;
    const std::size_t n_bits = bytes.size() * 8;
    if (n_bits == 0)
        return res;
    std::uint64_t ones = 0;
    for (std::size_t i = 0; i < n_bits; ++i)
        ones += static_cast<std::uint64_t>(bitAt(bytes, i));
    const double n = static_cast<double>(n_bits);
    res.statistic =
        std::abs(2.0 * static_cast<double>(ones) - n) / std::sqrt(n);
    res.pass = res.statistic < 3.29;
    return res;
}

/** Bit-by-bit reference runs test (Wald-Wolfowitz). */
TestResult
referenceRuns(std::span<const std::uint8_t> bytes)
{
    TestResult res;
    const std::size_t n_bits = bytes.size() * 8;
    if (n_bits < 2)
        return res;
    std::uint64_t ones = 0;
    std::uint64_t runs = 1;
    for (std::size_t i = 0; i < n_bits; ++i) {
        ones += static_cast<std::uint64_t>(bitAt(bytes, i));
        if (i > 0 && bitAt(bytes, i) != bitAt(bytes, i - 1))
            ++runs;
    }
    const double n = static_cast<double>(n_bits);
    const double pi = static_cast<double>(ones) / n;
    const double expected = 2.0 * n * pi * (1.0 - pi) + 1.0;
    const double variance =
        2.0 * n * pi * (1.0 - pi) * (2.0 * pi * (1.0 - pi));
    if (variance <= 0.0)
        return res;
    res.statistic =
        std::abs(static_cast<double>(runs) - expected) / std::sqrt(variance);
    res.pass = res.statistic < 3.29;
    return res;
}

/** Library and reference agree bit for bit on @p bytes. */
void
expectMatchesReference(std::span<const std::uint8_t> bytes)
{
    const TestResult mono = monobitTest(bytes);
    const TestResult mono_ref = referenceMonobit(bytes);
    EXPECT_EQ(mono.statistic, mono_ref.statistic) << bytes.size() << " B";
    EXPECT_EQ(mono.pass, mono_ref.pass) << bytes.size() << " B";
    const TestResult runs = runsTest(bytes);
    const TestResult runs_ref = referenceRuns(bytes);
    EXPECT_EQ(runs.statistic, runs_ref.statistic) << bytes.size() << " B";
    EXPECT_EQ(runs.pass, runs_ref.pass) << bytes.size() << " B";
}

} // namespace

TEST_F(BitQualityTest, WordParallelMatchesBitwiseOnRandomLengths)
{
    // Every length through 67 bytes: empty, a single byte, and every
    // tail that is not a whole 64-bit word.
    for (std::size_t len = 0; len <= 67; ++len)
        for (std::uint64_t seed = 1; seed <= 8; ++seed)
            expectMatchesReference(randomBytes(len, seed * 1000 + len));
}

TEST_F(BitQualityTest, WordParallelMatchesBitwiseOnConstantPatterns)
{
    for (const std::uint8_t fill : {0x00, 0xff, 0x55, 0xaa})
        for (std::size_t len = 0; len <= 67; ++len)
            expectMatchesReference(std::vector<std::uint8_t>(len, fill));
}

TEST_F(BitQualityTest, WordParallelMatchesBitwiseOnAuditBlocks)
{
    for (std::uint64_t i = 0; i < 1000; ++i) {
        fault::RoundContext ctx;
        ctx.seed = mix64(i);
        ctx.channel = static_cast<unsigned>(i % 4);
        ctx.cell = static_cast<std::uint32_t>(i % 64);
        ctx.use = i / 64;
        expectMatchesReference(fault::healthyBlock(ctx));
    }
}

namespace {

/** The fused audit is exactly the two-test conjunction on @p bytes. */
void
expectFusedMatches(std::span<const std::uint8_t> bytes)
{
    EXPECT_EQ(monobitAndRunsPass(bytes),
              monobitTest(bytes).pass && runsTest(bytes).pass)
        << bytes.size() << " B";
}

/** A 32-byte block whose 256 bits hold @p ones ones, at seeded
 *  positions (a Fisher-Yates shuffle of a sorted block). */
std::vector<std::uint8_t>
blockWithOnes(unsigned ones, std::uint64_t seed)
{
    std::vector<int> bits(256, 0);
    for (unsigned i = 0; i < ones; ++i)
        bits[i] = 1;
    for (std::size_t i = bits.size() - 1; i > 0; --i)
        std::swap(bits[i], bits[mix64(seed ^ i) % (i + 1)]);
    std::vector<std::uint8_t> block(32, 0);
    for (std::size_t i = 0; i < bits.size(); ++i)
        block[i / 8] |= static_cast<std::uint8_t>(bits[i] << (i % 8));
    return block;
}

} // namespace

TEST_F(BitQualityTest, FusedAuditMatchesConjunctionOnSeededBlocks)
{
    unsigned passed = 0, runs_only = 0;
    for (std::uint64_t i = 0; i < 10000; ++i) {
        std::vector<std::uint8_t> block = randomBytes(32, i + 1);
        // Bias a third of the blocks toward zeros by a varying amount,
        // so both verdicts and both failing tests occur.
        if (i % 3 == 1)
            for (std::size_t b = 0; b < i % 33; ++b)
                block[b % 32] &= static_cast<std::uint8_t>(mix64(i ^ b));
        expectFusedMatches(block);
        passed += monobitAndRunsPass(block) ? 1u : 0u;
        runs_only +=
            monobitTest(block).pass && !runsTest(block).pass ? 1u : 0u;
    }
    EXPECT_GT(passed, 5000u);
    EXPECT_LT(passed + runs_only, 10000u) << "no block failed monobit";
    EXPECT_GT(runs_only, 0u) << "no block failed the runs test alone";
}

TEST_F(BitQualityTest, FusedAuditMatchesConjunctionOnEdgeCases)
{
    expectFusedMatches({});
    EXPECT_FALSE(monobitAndRunsPass({}));
    for (const std::uint8_t byte : {0x00, 0x01, 0x55, 0xff})
        expectFusedMatches(std::vector<std::uint8_t>(1, byte));
    for (const std::uint8_t fill : {0x00, 0xff, 0x55}) {
        const std::vector<std::uint8_t> block(32, fill);
        expectFusedMatches(block);
        EXPECT_FALSE(monobitAndRunsPass(block));
    }
    // 256 bits: |z| = |2 ones - 256| / 16, so 154 ones give 3.25 (pass)
    // and 155 ones 3.375 (fail), the two sides of the 3.29 bound.
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        const std::vector<std::uint8_t> below = blockWithOnes(154, seed);
        const std::vector<std::uint8_t> above = blockWithOnes(155, seed);
        ASSERT_EQ(monobitTest(below).statistic, 3.25);
        ASSERT_EQ(monobitTest(above).statistic, 3.375);
        expectFusedMatches(below);
        expectFusedMatches(above);
        EXPECT_FALSE(monobitAndRunsPass(above));
    }
}

class RngEngineTest : public ::testing::Test
{
  protected:
    dram::DramTimings t;
    dram::DramGeometry g;
    dram::DramChannel chan{t, g};
    TrngMechanism mech = TrngMechanism::dRange();
};

TEST_F(RngEngineTest, ProducesBitsPerRoundAfterSwitchIn)
{
    RngEngine eng(mech, chan);
    EXPECT_TRUE(eng.idle());
    eng.start(0);
    EXPECT_TRUE(eng.active());

    double produced = 0.0;
    Cycle first_bits_at = 0;
    for (Cycle c = 0; c < 200 && produced == 0.0; ++c) {
        produced = eng.tick(c);
        first_bits_at = c;
    }
    EXPECT_DOUBLE_EQ(produced, mech.bitsPerRound);
    // Bits appear at the end of switch-in plus one round.
    EXPECT_EQ(first_bits_at + 1, mech.switchInLatency + mech.roundLatency);
}

TEST_F(RngEngineTest, StopFinishesCurrentRoundThenExits)
{
    RngEngine eng(mech, chan);
    eng.start(0);
    // Run into the first round, then ask to stop.
    for (Cycle c = 0; c < mech.switchInLatency + 1; ++c)
        eng.tick(c);
    eng.requestStop();
    double bits = 0.0;
    Cycle c = mech.switchInLatency + 1;
    while (eng.active() && c < 1000) {
        bits += eng.tick(c);
        ++c;
    }
    EXPECT_TRUE(eng.idle());
    // Exactly one round completed before switching out.
    EXPECT_DOUBLE_EQ(bits, mech.bitsPerRound);
    EXPECT_DOUBLE_EQ(eng.totalBits(), mech.bitsPerRound);
}

TEST_F(RngEngineTest, CancelStopContinuesRounds)
{
    RngEngine eng(mech, chan);
    eng.start(0);
    eng.requestStop();
    eng.cancelStop();
    double bits = 0.0;
    for (Cycle c = 0; c < mech.switchInLatency + 3 * mech.roundLatency + 2;
         ++c) {
        bits += eng.tick(c);
    }
    EXPECT_GE(bits, 3 * mech.bitsPerRound);
    EXPECT_TRUE(eng.active());
}

TEST_F(RngEngineTest, OccupiesChannelWhileActive)
{
    RngEngine eng(mech, chan);
    eng.start(0);
    EXPECT_TRUE(chan.rngBusy(1));
    EXPECT_FALSE(chan.canIssue(dram::DramCmd::Act, 0, 1));
    // Sustained occupancy accounting.
    for (Cycle c = 0; c < 100; ++c)
        eng.tick(c);
    EXPECT_GT(eng.totalOccupiedCycles(), 90u);
}

TEST_F(RngEngineTest, SustainedThroughputMatchesMechanism)
{
    RngEngine eng(mech, chan);
    eng.start(0);
    const Cycle horizon = 100000;
    double bits = 0.0;
    for (Cycle c = 0; c < horizon; ++c)
        bits += eng.tick(c);
    const double mbps = bits / (horizon / kBusFreqHz) / 1e6;
    EXPECT_NEAR(mbps, mech.perChannelThroughputMbps(),
                mech.perChannelThroughputMbps() * 0.02);
}

TEST_F(RngEngineTest, RoundsCountedForEnergy)
{
    RngEngine eng(mech, chan);
    eng.start(0);
    for (Cycle c = 0; c < mech.switchInLatency + 5 * mech.roundLatency + 1;
         ++c) {
        eng.tick(c);
    }
    EXPECT_GE(chan.energyCounters().rngRounds, 5u);
}
