/**
 * @file
 * Tests for the application interface: the getrandom()-style
 * RandomDevice over the simulated DRAM-TRNG system.
 */

#include <gtest/gtest.h>

#include "api/random_device.h"
#include "sim/design_registry.h"
#include "trng/bit_quality.h"

using namespace dstrange;
using namespace dstrange::api;

TEST(RandomDevice, ReturnsRequestedBytes)
{
    RandomDevice dev;
    const auto res = dev.getRandom(32);
    EXPECT_EQ(res.bytes.size(), 32u);
    EXPECT_GT(res.latencyNs, 0.0);
}

TEST(RandomDevice, ColdStartGeneratesOnDemand)
{
    RandomDevice::Config cfg;
    sim::DesignRegistry::instance().apply("oblivious", cfg.sim);
    RandomDevice dev(cfg);
    const auto res = dev.getRandom(8);
    EXPECT_FALSE(res.servedFromBuffer);
    // On-demand 64-bit generation across 4 channels: ~15 bus cycles.
    EXPECT_GT(res.latencyNs, 10.0);
}

TEST(RandomDevice, IdleTimeFillsBufferAndSpeedsUpServes)
{
    RandomDevice dev; // DR-STRaNGe with a 16-entry buffer
    // First request: cold, on demand.
    const auto cold = dev.getRandom(8);
    // Give the device idle time to fill the buffer.
    dev.idle(10000.0);
    EXPECT_GT(dev.bufferLevelBits(), 64.0);
    const auto warm = dev.getRandom(8);
    EXPECT_TRUE(warm.servedFromBuffer);
    EXPECT_LT(warm.latencyNs, cold.latencyNs);
}

TEST(RandomDevice, ObliviousDesignNeverBuffers)
{
    RandomDevice::Config cfg;
    sim::DesignRegistry::instance().apply("oblivious", cfg.sim);
    RandomDevice dev(cfg);
    dev.idle(10000.0);
    EXPECT_DOUBLE_EQ(dev.bufferLevelBits(), 0.0);
}

TEST(RandomDevice, LargeRequestSpansMultipleWords)
{
    RandomDevice dev;
    const auto res = dev.getRandom(1024);
    EXPECT_EQ(res.bytes.size(), 1024u);
    EXPECT_GT(dev.elapsedNs(), 0.0);
}

TEST(RandomDevice, OutputPassesBasicQualityChecks)
{
    RandomDevice dev;
    dev.idle(1e6);
    std::vector<std::uint8_t> bytes;
    while (bytes.size() < (1u << 15)) {
        const auto res = dev.getRandom(512);
        bytes.insert(bytes.end(), res.bytes.begin(), res.bytes.end());
        dev.idle(5000.0);
    }
    EXPECT_TRUE(trng::monobitTest(bytes).pass);
    EXPECT_TRUE(trng::chiSquareByteTest(bytes).pass);
    EXPECT_GT(trng::shannonEntropyPerByte(bytes), 7.9);
}

TEST(RandomDevice, DeterministicForSameSeed)
{
    RandomDevice::Config cfg;
    cfg.sim.seed = 123;
    RandomDevice a(cfg), b(cfg);
    const auto ra = a.getRandom(64);
    const auto rb = b.getRandom(64);
    EXPECT_EQ(ra.bytes, rb.bytes);
    EXPECT_DOUBLE_EQ(ra.latencyNs, rb.latencyNs);
}

TEST(RandomDevice, SuccessiveValuesAreUnique)
{
    RandomDevice dev;
    const auto a = dev.getRandom(16);
    const auto b = dev.getRandom(16);
    EXPECT_NE(a.bytes, b.bytes); // served bits are discarded (Section 6)
}
