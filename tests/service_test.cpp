/**
 * @file
 * Tests for the open-loop RNG-as-a-service layer: the log-linear
 * latency histogram (exact low buckets, nearest-rank percentiles,
 * count-addition merge), the stats_util exact-percentile/merge helpers,
 * seeded golden-value arrival streams per arrival-process key,
 * closed-loop feedback, service.* config text and builder wiring,
 * end-to-end service cells through the Runner (bit-identical reruns,
 * fast-forward lockstep, saturation verdicts, and SloReport JSON round
 * trips).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "drstrange.h"
#include "sim/lockstep.h"

using namespace dstrange;

namespace {

/** A service-only configuration (no traced cores). */
sim::SimConfig
serviceConfig(double mbps, Cycle duration = 20000)
{
    sim::SimConfig cfg;
    cfg.service.enabled = true;
    cfg.service.offeredMbps = mbps;
    cfg.service.durationCycles = duration;
    cfg.service.sloTargetCycles = 500;
    return cfg;
}

workloads::WorkloadSpec
serviceSpec()
{
    workloads::WorkloadSpec spec;
    spec.name = "svc";
    spec.rngThroughputMbps = 0.0;
    return spec;
}

service::ArrivalParams
goldenParams()
{
    service::ArrivalParams p;
    p.meanGapCycles = 10.0;
    p.clients = 4;
    p.burstFactor = 4.0;
    p.periodCycles = 20000;
    p.seed = 42;
    return p;
}

std::vector<Cycle>
firstArrivals(const std::string &key, const service::ArrivalParams &p,
              std::size_t n)
{
    service::ArrivalProcess proc(key, p);
    std::vector<Cycle> out;
    for (std::size_t i = 0; i < n && proc.peek() != kNoEvent; ++i) {
        out.push_back(proc.peek());
        proc.pop();
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// LatencyHistogram.
// ---------------------------------------------------------------------

TEST(LatencyHistogram, EmptyIsAllZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.percentile(1.0), 0u);
}

TEST(LatencyHistogram, SingleSampleEveryPercentile)
{
    LatencyHistogram h;
    h.record(42);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 42u);
    EXPECT_EQ(h.max(), 42u);
    EXPECT_EQ(h.mean(), 42.0);
    EXPECT_EQ(h.percentile(0.001), 42u);
    EXPECT_EQ(h.percentile(0.5), 42u);
    EXPECT_EQ(h.percentile(1.0), 42u);
}

TEST(LatencyHistogram, ExactBelowLinearLimit)
{
    // Values below 2^7 land in exact single-value buckets, so the
    // nearest-rank percentile over 1..100 is the rank itself.
    LatencyHistogram h;
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.record(v);
    EXPECT_EQ(h.percentile(0.50), 50u);
    EXPECT_EQ(h.percentile(0.99), 99u);
    EXPECT_EQ(h.percentile(1.0), 100u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_EQ(h.valueSum(), 5050u);
}

TEST(LatencyHistogram, BucketRoundTripAndQuantizationBound)
{
    for (std::uint64_t v :
         {0ull, 1ull, 127ull, 128ull, 129ull, 1000ull, 65535ull,
          1000000ull, (1ull << 40) + 12345ull}) {
        const std::size_t idx = LatencyHistogram::bucketOf(v);
        ASSERT_LT(idx, LatencyHistogram::kBuckets);
        const std::uint64_t ub = LatencyHistogram::bucketUpperBound(idx);
        EXPECT_GE(ub, v);
        // The reported bound overshoots by at most one sub-bucket
        // (2^-6 relative).
        EXPECT_LE(static_cast<double>(ub - v),
                  static_cast<double>(v) / 64.0 + 1.0);
        EXPECT_EQ(LatencyHistogram::bucketOf(ub), idx);
    }
}

TEST(LatencyHistogram, PercentilesAreMonotone)
{
    LatencyHistogram h;
    Xoshiro256ss rng(7);
    for (int i = 0; i < 5000; ++i)
        h.record(rng.next() % 100000);
    const std::uint64_t p50 = h.percentile(0.50);
    const std::uint64_t p99 = h.percentile(0.99);
    const std::uint64_t p999 = h.percentile(0.999);
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, p999);
    EXPECT_GE(p999, h.max() / 2); // sanity: in the right region
}

TEST(LatencyHistogram, MergeEqualsPooled)
{
    LatencyHistogram a, b, pooled;
    for (std::uint64_t v : {3ull, 900ull, 12ull, 4096ull}) {
        a.record(v);
        pooled.record(v);
    }
    for (std::uint64_t v : {1ull, 77ull, 500000ull}) {
        b.record(v);
        pooled.record(v);
    }
    LatencyHistogram merged = a;
    merged.merge(b);
    EXPECT_EQ(merged.count(), pooled.count());
    EXPECT_EQ(merged.valueSum(), pooled.valueSum());
    EXPECT_EQ(merged.min(), pooled.min());
    EXPECT_EQ(merged.max(), pooled.max());
    EXPECT_EQ(merged.percentile(0.5), pooled.percentile(0.5));
    EXPECT_EQ(merged.fingerprint(), pooled.fingerprint());

    // Merging an empty histogram is a no-op, either way around.
    LatencyHistogram empty;
    LatencyHistogram c = pooled;
    c.merge(empty);
    EXPECT_EQ(c.fingerprint(), pooled.fingerprint());
    LatencyHistogram d;
    d.merge(pooled);
    EXPECT_EQ(d.fingerprint(), pooled.fingerprint());
}

// ---------------------------------------------------------------------
// stats_util helpers.
// ---------------------------------------------------------------------

TEST(StatsUtil, ExactPercentileEdgeCases)
{
    EXPECT_EQ(exactPercentile({}, 0.5), 0.0);
    EXPECT_EQ(exactPercentile({5.0}, 0.0), 5.0);
    EXPECT_EQ(exactPercentile({5.0}, 0.5), 5.0);
    EXPECT_EQ(exactPercentile({5.0}, 1.0), 5.0);
}

TEST(StatsUtil, ExactPercentileIsNearestRank)
{
    const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
    EXPECT_EQ(exactPercentile(v, 0.25), 1.0);
    EXPECT_EQ(exactPercentile(v, 0.50), 2.0);
    EXPECT_EQ(exactPercentile(v, 0.75), 3.0);
    EXPECT_EQ(exactPercentile(v, 1.00), 4.0);
    // Always an actual sample, unlike the interpolating percentile().
    EXPECT_EQ(exactPercentile(v, 0.6), 3.0);
    // Out-of-range p clamps.
    EXPECT_EQ(exactPercentile(v, -1.0), 1.0);
    EXPECT_EQ(exactPercentile(v, 2.0), 4.0);
}

TEST(StatsUtil, MergeHistogramsHelper)
{
    LatencyHistogram a, b;
    a.record(10);
    a.record(20);
    b.record(30);
    const LatencyHistogram merged = mergeHistograms({a, b});
    EXPECT_EQ(merged.count(), 3u);
    EXPECT_EQ(merged.min(), 10u);
    EXPECT_EQ(merged.max(), 30u);
    EXPECT_EQ(mergeHistograms({}).count(), 0u);
}

// ---------------------------------------------------------------------
// Arrival processes: golden streams and key-list behavior.
// ---------------------------------------------------------------------

TEST(ArrivalProcess, GoldenPoissonStream)
{
    const std::vector<Cycle> expect = {11, 27, 32, 33, 34, 43, 52, 59};
    EXPECT_EQ(firstArrivals("poisson", goldenParams(), 8), expect);
}

TEST(ArrivalProcess, GoldenBurstyStream)
{
    const std::vector<Cycle> expect = {2, 2, 9, 10, 12, 13, 13, 19};
    EXPECT_EQ(firstArrivals("bursty", goldenParams(), 8), expect);
}

TEST(ArrivalProcess, GoldenDiurnalStream)
{
    const std::vector<Cycle> expect = {30, 54, 86, 94, 97, 108, 112, 117};
    EXPECT_EQ(firstArrivals("diurnal", goldenParams(), 8), expect);
}

TEST(ArrivalProcess, StreamsAreSeedDeterministic)
{
    for (const std::string key : service::kArrivals) {
        EXPECT_EQ(firstArrivals(key, goldenParams(), 16),
                  firstArrivals(key, goldenParams(), 16))
            << key;
        // A different seed must change the open-loop streams.
        if (key == "closed-loop")
            continue;
        service::ArrivalParams other = goldenParams();
        other.seed = 43;
        EXPECT_NE(firstArrivals(key, goldenParams(), 16),
                  firstArrivals(key, other, 16))
            << key;
    }
}

TEST(ArrivalProcess, ArrivalsAreNondecreasing)
{
    for (const std::string key : service::kArrivals) {
        const auto stream = firstArrivals(key, goldenParams(), 64);
        for (std::size_t i = 1; i < stream.size(); ++i)
            EXPECT_LE(stream[i - 1], stream[i]) << key << " @" << i;
    }
}

TEST(ArrivalProcess, ClosedLoopWindowAndFeedback)
{
    service::ArrivalParams p = goldenParams();
    p.clients = 4;
    service::ArrivalProcess proc("closed-loop", p);
    // Exactly `clients` immediate arrivals, then the window is closed.
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(proc.peek(), 0u);
        proc.pop();
    }
    EXPECT_EQ(proc.peek(), kNoEvent);
    // A completion releases one follow-up arrival just after `now`.
    proc.onCompletion(100);
    EXPECT_EQ(proc.peek(), 101u);
    proc.pop();
    EXPECT_EQ(proc.peek(), kNoEvent);
}

TEST(ArrivalRegistry, DefaultKeysAndErrors)
{
    for (const char *key : {"poisson", "bursty", "diurnal", "closed-loop"})
        EXPECT_NO_THROW(service::requireArrival(key)) << key;
    EXPECT_THROW(service::requireArrival("nope"), std::out_of_range);
    EXPECT_THROW(service::ArrivalProcess("nope", goldenParams()),
                 std::out_of_range);
    EXPECT_EQ(service::ServiceConfig{}.arrival, "poisson");
}

// ---------------------------------------------------------------------
// Configuration wiring: config text and the builder.
// ---------------------------------------------------------------------

TEST(ServiceConfigText, DefaultsSerializeAndRoundTrip)
{
    const sim::SimConfig cfg;
    const std::string text = sim::serializeConfig(cfg);
    EXPECT_NE(text.find("service.enabled=0"), std::string::npos);
    EXPECT_NE(text.find("service.arrival=poisson"), std::string::npos);
    const sim::SimConfig back = sim::parseConfig(text);
    EXPECT_EQ(sim::serializeConfig(back), text);
}

TEST(ServiceConfigText, AppliesEveryServiceKey)
{
    sim::SimConfig cfg;
    sim::applyConfigText(
        cfg, "service.enabled=1 service.arrival=bursty "
             "service.offered-mbps=1234.5 service.clients=7 "
             "service.burst=2.5 service.period=999 service.slo=100 "
             "service.duration=5000");
    EXPECT_TRUE(cfg.service.enabled);
    EXPECT_EQ(cfg.service.arrival, "bursty");
    EXPECT_EQ(cfg.service.offeredMbps, 1234.5);
    EXPECT_EQ(cfg.service.clients, 7u);
    EXPECT_EQ(cfg.service.burstFactor, 2.5);
    EXPECT_EQ(cfg.service.periodCycles, 999u);
    EXPECT_EQ(cfg.service.sloTargetCycles, 100u);
    EXPECT_EQ(cfg.service.durationCycles, 5000u);
    const std::string text = sim::serializeConfig(cfg);
    EXPECT_EQ(sim::serializeConfig(sim::parseConfig(text)), text);
}

TEST(ServiceConfigText, RejectsUnknownArrivalAndKeys)
{
    sim::SimConfig cfg;
    EXPECT_THROW(sim::applyConfigText(cfg, "service.arrival=nope"),
                 std::invalid_argument);
    EXPECT_THROW(sim::applyConfigText(cfg, "service.bogus=1"),
                 std::invalid_argument);
}

TEST(ServiceBuilder, SettersAndValidation)
{
    const sim::SimulationBuilder b = sim::SimulationBuilder::fromText(
        "service.enabled=1 service.arrival=diurnal "
        "service.offered-mbps=2560 service.clients=32 service.slo=250 "
        "service.duration=10000");
    EXPECT_TRUE(b.config().service.enabled);
    EXPECT_EQ(b.config().service.arrival, "diurnal");
    EXPECT_EQ(b.config().service.offeredMbps, 2560.0);
    EXPECT_EQ(b.config().service.clients, 32u);
    EXPECT_EQ(b.config().service.sloTargetCycles, 250u);
    EXPECT_EQ(b.config().service.durationCycles, 10000u);
    EXPECT_THROW(sim::SimulationBuilder::fromText("service.arrival=nope"),
                 std::invalid_argument);
    // Builder text round trip carries the service keys.
    const std::string text = b.toText();
    EXPECT_EQ(sim::SimulationBuilder::fromText(text).toText(), text);
}

TEST(ServiceConfigDefaults, OfferedLoadConversion)
{
    // 5120 Mb/s over a 64-bit request at the 800 MHz bus = 10 cycles.
    EXPECT_DOUBLE_EQ(service::OpenLoopService::meanGapCycles(5120.0),
                     10.0);
    // A zero offered rate must not divide by zero.
    EXPECT_GT(service::OpenLoopService::meanGapCycles(0.0), 1e12);
}

// ---------------------------------------------------------------------
// End-to-end service cells through the Runner.
// ---------------------------------------------------------------------

TEST(ServiceRun, CompletesAndReports)
{
    sim::Runner runner(serviceConfig(2560.0));
    const auto res = runner.run(serviceConfig(2560.0), serviceSpec());
    ASSERT_TRUE(res.service.has_value());
    const service::SloReport &s = *res.service;
    EXPECT_GT(s.offered, 0u);
    EXPECT_EQ(s.completed, s.offered); // below saturation: all served
    EXPECT_LE(s.p50, s.p99);
    EXPECT_LE(s.p99, s.p999);
    EXPECT_LE(s.p999, s.maxLatency);
    EXPECT_GT(s.goodputRps, 0.0);
    EXPECT_FALSE(s.saturated);
    EXPECT_EQ(s.arrival, "poisson");
    // The serve-path split covers every completion.
    EXPECT_EQ(s.servedBuffer + s.servedStaging + s.servedEngine,
              s.completed);
}

TEST(ServiceRun, RerunsBitIdentically)
{
    sim::Runner runner(serviceConfig(5120.0));
    const auto a = runner.run(serviceConfig(5120.0), serviceSpec());
    const auto b = runner.run(serviceConfig(5120.0), serviceSpec());
    EXPECT_EQ(sim::serializeWorkloadResult(a),
              sim::serializeWorkloadResult(b));
}

TEST(ServiceRun, SaturatesUnderOverloadOnly)
{
    sim::Runner runner(serviceConfig(1280.0));
    const auto low = runner.run(serviceConfig(1280.0), serviceSpec());
    ASSERT_TRUE(low.service.has_value());
    EXPECT_FALSE(low.service->saturated);

    const auto high = runner.run(serviceConfig(20480.0), serviceSpec());
    ASSERT_TRUE(high.service.has_value());
    EXPECT_TRUE(high.service->saturated);
    EXPECT_GT(high.service->p99, low.service->p99);
    EXPECT_GT(high.service->maxBacklog, low.service->maxBacklog);
}

TEST(ServiceRun, FastForwardIsBitIdentical)
{
    // The DS_LOCKSTEP invariant, driven directly: a fast-forwarded
    // service cell must match a step-1 run statistic for statistic.
    auto fingerprintWith = [](bool ff) {
        sim::System sys(serviceConfig(2560.0, 10000), {});
        sys.setFastForward(ff);
        sys.run();
        return sim::systemFingerprint(sys);
    };
    const std::string fast = fingerprintWith(true);
    EXPECT_EQ(fast, fingerprintWith(false));
    // The fingerprint actually covers the service layer.
    EXPECT_NE(fast.find("svc.completed="), std::string::npos);
    EXPECT_NE(fast.find("svc.latency_fp="), std::string::npos);
}

TEST(ServiceRun, LockstepSmoke)
{
#ifdef _WIN32
    _putenv_s("DS_LOCKSTEP", "1");
#else
    setenv("DS_LOCKSTEP", "1", 1);
#endif
    sim::Runner runner(serviceConfig(2560.0, 10000));
    // verifyLockstep throws on any fast-forward divergence.
    EXPECT_NO_THROW(
        runner.run(serviceConfig(2560.0, 10000), serviceSpec()));
#ifdef _WIN32
    _putenv_s("DS_LOCKSTEP", "");
#else
    unsetenv("DS_LOCKSTEP");
#endif
}

TEST(ServiceRun, ClosedLoopShimRuns)
{
    sim::SimConfig cfg = serviceConfig(5120.0, 5000);
    cfg.service.arrival = "closed-loop";
    cfg.service.clients = 8;
    sim::Runner runner(cfg);
    const auto res = runner.run(cfg, serviceSpec());
    ASSERT_TRUE(res.service.has_value());
    EXPECT_GT(res.service->completed, 8u);
    // The closed window keeps the backlog bounded by the client count.
    EXPECT_LE(res.service->maxBacklog, 8u);
}

TEST(ServiceRun, CoexistsWithTracedCores)
{
    sim::SimConfig cfg = serviceConfig(1280.0, 10000);
    cfg.instrBudget = 3000;
    workloads::WorkloadSpec spec;
    spec.name = "mcf+svc";
    spec.apps = {"mcf"};
    sim::Runner runner(cfg);
    const auto res = runner.run(cfg, spec);
    ASSERT_TRUE(res.service.has_value());
    EXPECT_GT(res.service->completed, 0u);
    ASSERT_GE(res.cores.size(), 1u);
    EXPECT_GT(res.cores[0].ipcShared, 0.0);
}

TEST(SloReport, JsonRoundTripIsBitExact)
{
    sim::Runner runner(serviceConfig(5120.0));
    const auto res = runner.run(serviceConfig(5120.0), serviceSpec());
    ASSERT_TRUE(res.service.has_value());

    JsonWriter w;
    res.service->writeJson(w);
    const service::SloReport back =
        service::SloReport::fromJson(JsonValue::parse(w.str()));
    JsonWriter w2;
    back.writeJson(w2);
    EXPECT_EQ(w.str(), w2.str());
    EXPECT_EQ(back.p99, res.service->p99);
    EXPECT_EQ(back.goodputRps, res.service->goodputRps);
    EXPECT_EQ(back.saturated, res.service->saturated);
}

TEST(SloReport, WorkloadResultJsonCarriesService)
{
    sim::Runner runner(serviceConfig(2560.0));
    const auto res = runner.run(serviceConfig(2560.0), serviceSpec());
    const std::string text = sim::serializeWorkloadResult(res);
    const auto back = sim::parseWorkloadResult(text);
    ASSERT_TRUE(back.service.has_value());
    EXPECT_EQ(sim::serializeWorkloadResult(back), text);

    // A service-less result omits the field entirely.
    sim::SimConfig plain;
    plain.instrBudget = 3000;
    sim::Runner plain_runner(plain);
    workloads::WorkloadSpec spec;
    spec.name = "mcf";
    spec.apps = {"mcf"};
    const auto no_svc = plain_runner.run(plain, spec);
    EXPECT_FALSE(no_svc.service.has_value());
    EXPECT_EQ(sim::serializeWorkloadResult(no_svc).find("\"service\""),
              std::string::npos);
}
