/**
 * @file
 * Unit tests for the common utilities: deterministic RNGs, statistics
 * helpers, and the table printer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/json_writer.h"
#include "common/rng.h"
#include "common/stats_util.h"
#include "common/table_printer.h"

using namespace dstrange;

TEST(SplitMix64, DeterministicForSameSeed)
{
    SplitMix64 a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge)
{
    SplitMix64 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_EQ(same, 0);
}

TEST(Mix64, IsAPermutationOnSamples)
{
    std::set<std::uint64_t> outputs;
    for (std::uint64_t x = 0; x < 1000; ++x)
        outputs.insert(mix64(x));
    EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Xoshiro, DeterministicForSameSeed)
{
    Xoshiro256ss a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Xoshiro, NextDoubleInUnitInterval)
{
    Xoshiro256ss gen(7);
    for (int i = 0; i < 10000; ++i) {
        const double d = gen.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
    }
}

TEST(Xoshiro, NextBelowStaysInRange)
{
    Xoshiro256ss gen(9);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1ull << 40}) {
        for (int i = 0; i < 1000; ++i)
            ASSERT_LT(gen.nextBelow(bound), bound);
    }
}

TEST(Xoshiro, GeometricMeanMatchesTarget)
{
    Xoshiro256ss gen(11);
    for (double target : {2.0, 10.0, 100.0, 800.0}) {
        double sum = 0.0;
        const int n = 20000;
        for (int i = 0; i < n; ++i)
            sum += static_cast<double>(gen.nextGeometric(target));
        const double mean_obs = sum / n;
        EXPECT_NEAR(mean_obs, target, target * 0.1)
            << "target mean " << target;
    }
}

TEST(Xoshiro, GeometricOfZeroMeanIsZero)
{
    Xoshiro256ss gen(13);
    EXPECT_EQ(gen.nextGeometric(0.0), 0u);
    EXPECT_EQ(gen.nextGeometric(-1.0), 0u);
}

TEST(Xoshiro, BoolProbabilityRoughlyRespected)
{
    Xoshiro256ss gen(17);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += gen.nextBool(0.25);
    EXPECT_NEAR(hits / static_cast<double>(n), 0.25, 0.02);
}

TEST(StatsUtil, MeanAndGeomean)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({2.0, 4.0}), 3.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(StatsUtil, PercentileInterpolates)
{
    std::vector<double> v{1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
    EXPECT_DOUBLE_EQ(percentile({10.0}, 0.7), 10.0);
}

TEST(StatsUtil, BoxSummaryQuartilesAndOutliers)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    v.push_back(1000.0); // far outlier
    const BoxSummary box = boxSummary(v);
    EXPECT_DOUBLE_EQ(box.min, 1.0);
    EXPECT_DOUBLE_EQ(box.max, 1000.0);
    EXPECT_GT(box.q3, box.median);
    EXPECT_GT(box.median, box.q1);
    EXPECT_GE(box.highOutliers, 1u);
}

TEST(StatsUtil, BoxSummaryEmptyIsZeroed)
{
    const BoxSummary box = boxSummary({});
    EXPECT_DOUBLE_EQ(box.min, 0.0);
    EXPECT_DOUBLE_EQ(box.max, 0.0);
    EXPECT_EQ(box.highOutliers, 0u);
}

TEST(TablePrinter, AlignsColumnsAndPadsRaggedRows)
{
    TablePrinter t;
    t.setHeader({"a", "bbbb"});
    t.addRow({"x"});
    t.addRow({"longcell", "y", "z"});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("longcell"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TablePrinter, NumFormatsFixedPrecision)
{
    EXPECT_EQ(TablePrinter::num(1.23456, 2), "1.23");
    EXPECT_EQ(TablePrinter::num(2.0, 3), "2.000");
}

TEST(JsonWriter, EscapesQuotesBackslashesAndCommonControls)
{
    JsonWriter w;
    w.beginObject();
    w.key("s").value(std::string("a\"b\\c\nd\te\rf\bg\fh"));
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"s\":\"a\\\"b\\\\c\\nd\\te\\rf\\bg\\fh\"}");
}

TEST(JsonWriter, EscapesRemainingControlCharactersAsUnicode)
{
    // RFC 8259 requires every char < 0x20 escaped; those without a
    // short form must come out as \u00XX.
    JsonWriter w;
    std::string raw;
    raw.push_back('\x01');
    raw.push_back('\x1f');
    raw.push_back('A');
    w.beginObject();
    w.key("s").value(raw);
    w.endObject();
    EXPECT_EQ(w.str(), "{\"s\":\"\\u0001\\u001fA\"}");
}

TEST(JsonWriter, ControlCharactersInKeysAreEscapedToo)
{
    JsonWriter w;
    w.beginObject();
    w.key("a\rb").value(1);
    w.endObject();
    EXPECT_EQ(w.str(), "{\"a\\rb\":1}");
}
