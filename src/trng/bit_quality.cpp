#include "trng/bit_quality.h"

#include <array>
#include <bit>
#include <cmath>

namespace dstrange::trng {

namespace {

/** Little-endian load of 8 bytes: bit j of the word is bit j % 8 of
 *  byte j / 8, the order in which the tests walk the stream. */
std::uint64_t
loadWord(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (unsigned b = 0; b < 8; ++b)
        v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
    return v;
}

std::uint64_t
countOnes(std::span<const std::uint8_t> bytes)
{
    std::uint64_t ones = 0;
    std::size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8)
        ones += static_cast<std::uint64_t>(
            std::popcount(loadWord(&bytes[i])));
    for (; i < bytes.size(); ++i)
        ones += static_cast<std::uint64_t>(std::popcount(bytes[i]));
    return ones;
}

/** Adjacent bit pairs that differ; the stream's run count is one more.
 *  Within a chunk of w bits that is the popcount of x ^ (x >> 1) over
 *  its low w - 1 bits; across chunks, one compare of the boundary bits.
 *  @p bytes must not be empty. */
std::uint64_t
countTransitions(std::span<const std::uint8_t> bytes)
{
    constexpr std::uint64_t kLow63 = 0x7fff'ffff'ffff'ffffULL;
    std::uint64_t transitions = 0;
    std::uint64_t prev = bytes[0] & 1u; // last bit of the previous chunk
    std::size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
        const std::uint64_t x = loadWord(&bytes[i]);
        transitions += static_cast<std::uint64_t>(
                           std::popcount((x ^ (x >> 1)) & kLow63)) +
                       ((x ^ prev) & 1u);
        prev = x >> 63;
    }
    for (; i < bytes.size(); ++i) {
        const unsigned x = bytes[i];
        transitions += static_cast<std::uint64_t>(
                           std::popcount((x ^ (x >> 1)) & 0x7fu)) +
                       ((x ^ prev) & 1u);
        prev = x >> 7;
    }
    return transitions;
}

/** |z| of the monobit test over @p n bits holding @p ones ones. */
double
monobitStatistic(std::uint64_t ones, double n)
{
    return std::abs(2.0 * static_cast<double>(ones) - n) / std::sqrt(n);
}

/** The runs test over @p bytes, which hold @p ones ones; the
 *  transitions are counted only when the statistic needs them. */
TestResult
runsResult(std::span<const std::uint8_t> bytes, std::uint64_t ones)
{
    TestResult res;
    const std::size_t n_bits = bytes.size() * 8;
    if (n_bits < 2)
        return res;

    const double n = static_cast<double>(n_bits);
    const double pi = static_cast<double>(ones) / n; // fraction of ones
    const double expected = 2.0 * n * pi * (1.0 - pi) + 1.0;
    const double variance =
        2.0 * n * pi * (1.0 - pi) * (2.0 * pi * (1.0 - pi));
    if (variance <= 0.0)
        return res;
    const std::uint64_t runs = 1 + countTransitions(bytes);
    res.statistic =
        std::abs(static_cast<double>(runs) - expected) / std::sqrt(variance);
    res.pass = res.statistic < 3.29;
    return res;
}

} // namespace

TestResult
monobitTest(std::span<const std::uint8_t> bytes)
{
    TestResult res;
    const double n = static_cast<double>(bytes.size()) * 8.0;
    if (n == 0.0)
        return res;
    res.statistic = monobitStatistic(countOnes(bytes), n);
    res.pass = res.statistic < 3.29;
    return res;
}

TestResult
runsTest(std::span<const std::uint8_t> bytes)
{
    return runsResult(bytes, countOnes(bytes));
}

bool
monobitAndRunsPass(std::span<const std::uint8_t> bytes)
{
    if (bytes.empty())
        return false;
    const std::uint64_t ones = countOnes(bytes);
    return monobitStatistic(ones, static_cast<double>(bytes.size()) * 8.0) <
               3.29 &&
           runsResult(bytes, ones).pass;
}

TestResult
chiSquareByteTest(const std::vector<std::uint8_t> &bytes)
{
    TestResult res;
    if (bytes.size() < 2560) // need >=10 expected per bin
        return res;
    std::array<std::uint64_t, 256> hist{};
    for (std::uint8_t b : bytes)
        hist[b]++;
    const double expected = static_cast<double>(bytes.size()) / 256.0;
    double chi2 = 0.0;
    for (std::uint64_t h : hist) {
        const double d = static_cast<double>(h) - expected;
        chi2 += d * d / expected;
    }
    res.statistic = chi2;
    res.pass = chi2 > 160.0 && chi2 < 380.0;
    return res;
}

TestResult
serialCorrelationTest(const std::vector<std::uint8_t> &bytes)
{
    TestResult res;
    const std::size_t n = bytes.size();
    if (n < 2)
        return res;

    double sum_x = 0.0, sum_x2 = 0.0, sum_xy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = bytes[i];
        sum_x += x;
        sum_x2 += x * x;
        sum_xy += x * bytes[(i + 1) % n];
    }
    const double nn = static_cast<double>(n);
    const double num = nn * sum_xy - sum_x * sum_x;
    const double den = nn * sum_x2 - sum_x * sum_x;
    if (den == 0.0)
        return res;
    res.statistic = num / den;
    res.pass = std::abs(res.statistic) < 0.05;
    return res;
}

double
shannonEntropyPerByte(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.empty())
        return 0.0;
    std::array<std::uint64_t, 256> hist{};
    for (std::uint8_t b : bytes)
        hist[b]++;
    double entropy = 0.0;
    const double n = static_cast<double>(bytes.size());
    for (std::uint64_t h : hist) {
        if (h == 0)
            continue;
        const double p = static_cast<double>(h) / n;
        entropy -= p * std::log2(p);
    }
    return entropy;
}

} // namespace dstrange::trng
