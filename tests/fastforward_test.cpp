/**
 * @file
 * Tests for the event-driven cycle-skipping simulation core: per-
 * component event-horizon units, fast-forward batching equivalence,
 * and full-system bit-identity between the step-1 and fast-forward
 * paths — across all nine design presets, both TRNG mechanisms, and
 * randomized configurations with mixed RNG/non-RNG workloads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "drstrange.h"
#include "dram/dram_channel.h"
#include "mem/bliss.h"
#include "mem/fr_fcfs.h"
#include "mem/rng_aware.h"
#include "sim/lockstep.h"
#include "trng/rng_engine.h"

using namespace dstrange;

namespace {

// ---------------------------------------------------------------------
// Full-system bit-identity (the DS_LOCKSTEP invariant, driven directly).
// ---------------------------------------------------------------------

std::vector<std::unique_ptr<cpu::TraceSource>>
makeTraces(const sim::SimConfig &cfg, const std::string &app, double mbps)
{
    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    CoreId core = 0;
    if (!app.empty()) {
        traces.push_back(std::make_unique<workloads::SyntheticTrace>(
            workloads::appByName(app), cfg.geometry, core++, cfg.seed));
    }
    if (mbps > 0.0) {
        traces.push_back(std::make_unique<workloads::RngBenchmark>(
            mbps, cfg.geometry, cfg.seed + core));
    }
    return traces;
}

/** Run to completion with or without fast-forward; full fingerprint. */
std::string
runFingerprint(const sim::SimConfig &cfg, const std::string &app,
               double mbps, bool fast_forward)
{
    sim::System sys(cfg, makeTraces(cfg, app, mbps));
    sys.setFastForward(fast_forward);
    sys.run();
    if (fast_forward) {
        // The fast path must actually have fast-forwarded something on
        // these workloads, or the test proves nothing.
        EXPECT_GT(sys.ffStats().skippedCycles, 0u);
    }
    return sim::systemFingerprint(sys);
}

void
expectBitIdentical(const sim::SimConfig &cfg, const std::string &app,
                   double mbps, const std::string &label)
{
    const std::string fast = runFingerprint(cfg, app, mbps, true);
    const std::string ref = runFingerprint(cfg, app, mbps, false);
    EXPECT_EQ(fast, ref) << label;
}

TEST(FastForwardLockstep, AllPresetsDualWorkload)
{
    for (const sim::DesignPreset &d : sim::kPaperDesigns) {
        sim::SimConfig cfg = sim::SimulationBuilder().design(d.key).config();
        cfg.instrBudget = 15000;
        expectBitIdentical(cfg, "mcf", 5120.0, d.key);
    }
}

TEST(FastForwardLockstep, AllPresetsRngOnly)
{
    for (const sim::DesignPreset &d : sim::kPaperDesigns) {
        sim::SimConfig cfg = sim::SimulationBuilder().design(d.key).config();
        cfg.instrBudget = 15000;
        expectBitIdentical(cfg, "", 640.0, d.key);
    }
}

TEST(FastForwardLockstep, AllPresetsNonRngOnly)
{
    for (const sim::DesignPreset &d : sim::kPaperDesigns) {
        sim::SimConfig cfg = sim::SimulationBuilder().design(d.key).config();
        cfg.instrBudget = 15000;
        expectBitIdentical(cfg, "gcc", 0.0, d.key);
    }
}

TEST(FastForwardLockstep, QuacMechanismAndPartitions)
{
    for (const char *d : {"oblivious", "greedy", "drstrange"}) {
        sim::SimConfig cfg = sim::SimulationBuilder().design(d).config();
        cfg.instrBudget = 15000;
        cfg.mechanism = trng::TrngMechanism::quacTrng();
        cfg.bufferPartitions = 2;
        expectBitIdentical(cfg, "libq", 2560.0, d);
    }
}

TEST(FastForwardLockstep, PrioritiesAndPowerDown)
{
    sim::SimConfig cfg = sim::SimulationBuilder().design("drstrange").config();
    cfg.instrBudget = 15000;
    cfg.priorities = {5, 0};
    expectBitIdentical(cfg, "gcc", 1280.0, "non-RNG prioritized");

    cfg.priorities = {0, 5};
    expectBitIdentical(cfg, "gcc", 1280.0, "RNG prioritized");

    cfg.priorities.clear();
    cfg.powerDownThreshold = 200;
    expectBitIdentical(cfg, "gcc", 320.0, "power-down");
    expectBitIdentical(cfg, "sjeng", 0.0, "power-down non-RNG");
}

TEST(FastForwardLockstep, RandomizedConfigs)
{
    // Deterministically-seeded random sampling of the configuration
    // space: all presets, both mechanisms, varying buffers, budgets,
    // intensities, and seeds.
    Xoshiro256ss gen(0x5eedf00d);
    const char *apps[] = {"mcf", "gcc", "libq", "h264ref", "gamess"};
    const double mbps_choices[] = {0.0, 320.0, 1280.0, 5120.0, 10240.0};
    const unsigned buffers[] = {1, 4, 16, 64};
    for (unsigned trial = 0; trial < 10; ++trial) {
        // Drawn by table index: the sequence is reproducible as long as
        // kPaperDesigns keeps its order.
        const sim::DesignPreset &d =
            sim::kPaperDesigns[gen.next() % sim::kPaperDesigns.size()];
        sim::SimConfig cfg = sim::SimulationBuilder().design(d.key).config();
        cfg.instrBudget = 8000 + gen.next() % 8000;
        cfg.seed = 1 + gen.next() % 1000;
        cfg.bufferEntries =
            buffers[gen.next() % std::size(buffers)];
        if (gen.next() % 2)
            cfg.mechanism = trng::TrngMechanism::quacTrng();
        if (gen.next() % 4 == 0)
            cfg.powerDownThreshold = 100 + gen.next() % 400;
        const std::string app = apps[gen.next() % std::size(apps)];
        const double mbps =
            mbps_choices[gen.next() % std::size(mbps_choices)];
        expectBitIdentical(
            cfg, app, mbps,
            std::string(d.key) + "/" + app + "/trial" +
                std::to_string(trial));
    }
}

TEST(FastForwardLockstep, SteppedInFineIncrementsMatchesRun)
{
    // step() with arbitrary increments (forcing span clamping at each
    // boundary) must land on the same state as run().
    sim::SimConfig cfg = sim::SimulationBuilder().design("drstrange").config();
    cfg.instrBudget = 5000;

    sim::System whole(cfg, makeTraces(cfg, "gcc", 640.0));
    whole.run();

    sim::System pieces(cfg, makeTraces(cfg, "gcc", 640.0));
    while (!pieces.allFinished() &&
           pieces.busCycles() < whole.busCycles())
        pieces.step(7);
    // Align exactly (run() stops at the first all-finished check).
    if (pieces.busCycles() < whole.busCycles())
        pieces.step(whole.busCycles() - pieces.busCycles());
    EXPECT_EQ(sim::systemFingerprint(pieces),
              sim::systemFingerprint(whole));
}

TEST(FastForwardLockstep, RunnerMetricsIdentical)
{
    // End to end through the Runner: the derived paper metrics (not
    // just raw counters) must be bit-identical.
    auto metricsWith = [](bool ff) {
        sim::SimConfig base;
        base.instrBudget = 10000;
        sim::Runner runner(base);
        workloads::WorkloadSpec spec;
        spec.name = "mix";
        spec.apps = {"mcf"};
        spec.rngThroughputMbps = 5120.0;
        // Runner honors DS_FAST_FORWARD via System's constructor
        // default; override through the explicit setter path instead by
        // running the systems ourselves is covered above — here we set
        // the environment.
#ifdef _WIN32
        _putenv_s("DS_FAST_FORWARD", ff ? "1" : "0");
#else
        setenv("DS_FAST_FORWARD", ff ? "1" : "0", 1);
#endif
        const auto res = runner.run("drstrange", spec);
#ifndef _WIN32
        unsetenv("DS_FAST_FORWARD");
#else
        _putenv_s("DS_FAST_FORWARD", "");
#endif
        return std::vector<double>{
            res.cores[0].slowdown,     res.cores[1].slowdown,
            res.cores[0].memSlowdown,  res.cores[1].memSlowdown,
            res.unfairnessIndex,       res.weightedSpeedupNonRng,
            res.bufferServeRate,       res.predictorAccuracy,
            static_cast<double>(res.busCycles), res.energyNj};
    };
    EXPECT_EQ(metricsWith(true), metricsWith(false));
}

// ---------------------------------------------------------------------
// Component event-horizon units.
// ---------------------------------------------------------------------

TEST(FastForwardHorizon, RngEngineSchedule)
{
    const trng::TrngMechanism mech = trng::TrngMechanism::dRange();
    dram::DramTimings timings{};
    dram::DramGeometry geom{};
    dram::DramChannel chan(timings, geom);
    trng::RngEngine eng(mech, chan);

    // Idle: no self-scheduled event.
    EXPECT_EQ(eng.nextEventCycle(0), kNoEvent);

    // Switching in: the phase completes on the tick at phaseEnd - 1.
    eng.start(0);
    EXPECT_TRUE(eng.switchingIn());
    EXPECT_EQ(eng.nextEventCycle(0), mech.switchInLatency - 1);

    // Batched cycle counting matches per-cycle ticks.
    trng::RngEngine stepped(mech, chan);
    stepped.start(0);
    for (Cycle c = 0; c + 1 < mech.switchInLatency; ++c)
        EXPECT_EQ(stepped.tick(c), 0.0);
    eng.fastForward(0, mech.switchInLatency - 1);
    EXPECT_EQ(eng.totalOccupiedCycles(), stepped.totalOccupiedCycles());
    EXPECT_EQ(eng.switchingIn(), stepped.switchingIn());

    // The switch-in completion tick moves both into the first round.
    stepped.tick(mech.switchInLatency - 1);
    eng.fastForwardPhases(1);
    eng.fastForward(mech.switchInLatency - 1, mech.switchInLatency);
    EXPECT_TRUE(eng.inRound());
    EXPECT_TRUE(stepped.inRound());
    EXPECT_EQ(eng.phaseEndCycle(), stepped.phaseEndCycle());
    EXPECT_EQ(eng.nextEventCycle(mech.switchInLatency),
              mech.switchInLatency + mech.roundLatency - 1);
}

TEST(FastForwardHorizon, RngEngineParkedAndStopping)
{
    const trng::TrngMechanism mech = trng::TrngMechanism::dRange();
    dram::DramTimings timings{};
    dram::DramGeometry geom{};
    dram::DramChannel chan(timings, geom);
    trng::RngEngine eng(mech, chan);

    eng.start(0);
    Cycle now = 0;
    while (!eng.inRound())
        eng.tick(now++);
    eng.requestPark();
    while (eng.inRound())
        eng.tick(now++);
    ASSERT_TRUE(eng.parked());
    // Parked without a stop: quiescent until told otherwise.
    EXPECT_EQ(eng.nextEventCycle(now), kNoEvent);
    eng.requestStop();
    // Parked with a stop pending: acts on the very next tick.
    EXPECT_EQ(eng.nextEventCycle(now), now);
}

TEST(FastForwardHorizon, DramChannelRefreshAndResidency)
{
    dram::DramTimings timings{};
    dram::DramGeometry geom{};
    dram::DramChannel chan(timings, geom);

    // Fresh channel: the next self-scheduled event is the refresh edge.
    EXPECT_EQ(chan.nextEventCycle(0, false), timings.tREFI);

    // Batched residency equals per-cycle sampling.
    dram::DramChannel stepped(timings, geom);
    for (Cycle c = 0; c < 100; ++c)
        stepped.sampleState(c);
    chan.fastForwardState(0, 100);
    EXPECT_EQ(chan.energyCounters().cyclesPrecharged,
              stepped.energyCounters().cyclesPrecharged);
    EXPECT_EQ(chan.energyCounters().cyclesActive,
              stepped.energyCounters().cyclesActive);

    // With all banks closed the refresh edge issues REF immediately;
    // the next event is then the end of the tRFC window.
    dram::DramChannel refr(timings, geom);
    refr.tickRefresh(timings.tREFI);
    ASSERT_TRUE(refr.refreshBusy(timings.tREFI));
    EXPECT_EQ(refr.nextEventCycle(timings.tREFI, false),
              timings.tREFI + timings.tRFC);

    // With an open bank the refresh stages per-cycle precharges: the
    // channel reports per-cycle work (unless an active engine fences
    // it, in which case staging parks until the engine's own events).
    dram::DramChannel open(timings, geom);
    ASSERT_TRUE(open.canIssue(dram::DramCmd::Act, 0, 10));
    open.issue(dram::DramCmd::Act, 0, 10, /*row=*/7);
    open.tickRefresh(timings.tREFI);
    ASSERT_TRUE(open.refreshBusy(timings.tREFI));
    EXPECT_EQ(open.nextEventCycle(timings.tREFI, false), timings.tREFI);
    EXPECT_NE(open.nextEventCycle(timings.tREFI, true), timings.tREFI);
}

TEST(FastForwardHorizon, DramChannelEarliestIssueMatchesCanIssue)
{
    dram::DramTimings timings{};
    dram::DramGeometry geom{};
    dram::DramChannel chan(timings, geom);

    ASSERT_TRUE(chan.canIssue(dram::DramCmd::Act, 0, 10));
    chan.issue(dram::DramCmd::Act, 0, 10, /*row=*/42);

    // The read becomes legal exactly at earliestIssueCycle, not before.
    const Cycle rd_at = chan.earliestIssueCycle(dram::DramCmd::Rd, 0);
    for (Cycle c = 11; c < rd_at; ++c)
        EXPECT_FALSE(chan.canIssue(dram::DramCmd::Rd, 0, c)) << c;
    EXPECT_TRUE(chan.canIssue(dram::DramCmd::Rd, 0, rd_at));

    // Same for a second activate on another bank (tRRD fence).
    const Cycle act_at = chan.earliestIssueCycle(dram::DramCmd::Act, 1);
    for (Cycle c = 11; c < act_at; ++c)
        EXPECT_FALSE(chan.canIssue(dram::DramCmd::Act, 1, c)) << c;
    EXPECT_TRUE(chan.canIssue(dram::DramCmd::Act, 1, act_at));
}

TEST(FastForwardHorizon, SchedulerDefaultsAndBliss)
{
    // FR-FCFS never blocks skipping; BLISS's event is the clearing
    // interval; the base-class default is maximally conservative.
    mem::FrFcfsScheduler fr(1, 8, 16);
    EXPECT_EQ(fr.nextEventCycle(123), kNoEvent);

    mem::BlissScheduler bliss(1, 2, 4, 10000);
    EXPECT_EQ(bliss.nextEventCycle(123), 10000u);
    bliss.tick(10000);
    EXPECT_EQ(bliss.nextEventCycle(10001), 20000u);

    struct DefaultSched : mem::Scheduler
    {
        int pick(const mem::SchedContext &) override { return -1; }
        void onColumnIssued(const mem::Request &, unsigned) override {}
    } plain;
    EXPECT_EQ(plain.nextEventCycle(55), 55u);
}

TEST(FastForwardHorizon, RngAwarePolicyPeekAndFastForward)
{
    mem::RngAwarePolicy::Config pc;
    pc.stallLimit = 10;
    mem::RngAwarePolicy policy(1, 2, pc);
    mem::RequestQueue reads(8);
    mem::Request req;
    req.type = mem::ReqType::Read;
    req.core = 0;
    req.seq = 1;
    reads.push(req);
    std::deque<mem::RngJob> jobs;
    jobs.push_back(mem::RngJob{1, 0, 2, 0, 0.0});

    // Equal priorities charge the regular counter while choosing Rng.
    mem::RngAwarePolicy stepped(1, 2, pc);
    for (Cycle c = 0; c < 6; ++c) {
        EXPECT_EQ(stepped.peek(0, reads, jobs), mem::QueueChoice::Rng);
        EXPECT_EQ(stepped.choose(0, reads, jobs), mem::QueueChoice::Rng);
    }
    policy.fastForward(0, reads, jobs, 6);
    EXPECT_EQ(policy.maxStallObserved(), stepped.maxStallObserved());
    // Both predict the flip at the same cycle.
    EXPECT_EQ(policy.nextEventCycle(0, reads, jobs, 100),
              stepped.nextEventCycle(0, reads, jobs, 100));
    // And the flip actually happens there: 4 more charges, then Regular.
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(stepped.choose(0, reads, jobs), mem::QueueChoice::Rng);
    EXPECT_EQ(stepped.peek(0, reads, jobs), mem::QueueChoice::Regular);
    EXPECT_EQ(stepped.choose(0, reads, jobs), mem::QueueChoice::Regular);
}

TEST(FastForwardHorizon, SystemSkipsAndClampsToStep)
{
    sim::SimConfig cfg = sim::SimulationBuilder().design("drstrange").config();
    cfg.instrBudget = 5000;
    sim::System sys(cfg, makeTraces(cfg, "", 320.0));
    ASSERT_TRUE(sys.fastForwardEnabled());

    // Advancing one cycle at a time never fast-forwards (the span is
    // clamped to the step boundary), yet stays bit-identical.
    sim::System fine(cfg, makeTraces(cfg, "", 320.0));
    for (unsigned i = 0; i < 500; ++i)
        fine.step(1);
    EXPECT_EQ(fine.ffStats().skips, 0u);
    EXPECT_EQ(fine.busCycles(), 500u);

    sys.run();
    EXPECT_GT(sys.ffStats().skips, 0u);
    EXPECT_GT(sys.ffStats().skippedCycles,
              sys.ffStats().steppedCycles);
}

TEST(FastForwardHorizon, DisabledMatchesLegacyStepping)
{
    sim::SimConfig cfg = sim::SimulationBuilder().design("drstrange").config();
    cfg.instrBudget = 4000;
    sim::System sys(cfg, makeTraces(cfg, "gcc", 640.0));
    sys.setFastForward(false);
    sys.run();
    EXPECT_EQ(sys.ffStats().skips, 0u);
    EXPECT_EQ(sys.ffStats().skippedCycles, 0u);
    EXPECT_EQ(sys.ffStats().steppedCycles, sys.busCycles());
}

// ---------------------------------------------------------------------
// Closed-form production horizon vs. the round-by-round walk it
// replaced.
// ---------------------------------------------------------------------

using Producer = mem::MemoryController::Producer;

/**
 * The production walk the closed form replaced (minus its step cap):
 * rounds in tick order; with a job, the round that brings its
 * @p start bits to 64; without, the round at or one round before the
 * buffer's @p start spare bits run out.
 */
Cycle
walkThreshold(std::vector<Producer> ps, bool job, double start,
              Cycle bound)
{
    double collected = start; // Job case: bits the front job holds.
    double spare = start;     // Buffer case: free buffer bits.
    for (;;) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < ps.size(); ++i)
            if (ps[i].next < ps[best].next)
                best = i;
        Producer &p = ps[best];
        if (p.next == kNoEvent)
            return kNoEvent;
        if (job) {
            const double take = std::min(64.0 - collected, p.bits);
            if (collected + take >= 64.0)
                return p.next < bound ? p.next : kNoEvent;
            collected += take;
        } else {
            if (2.0 * p.bits >= spare)
                return p.next < bound ? p.next : kNoEvent;
            spare -= p.bits;
        }
        p.next = p.oneShot ? kNoEvent : p.next + p.period;
    }
}

TEST(FastForwardHorizon, ClosedFormThresholdMatchesWalk)
{
    Xoshiro256ss gen(0xc105edf0);
    const double int_bits[] = {1.0, 8.0, 16.0, 512.0};
    const double frac_bits[] = {0.3, 1.5, 7.25, 12.1};
    unsigned exact = 0;
    for (unsigned trial = 0; trial < 20000; ++trial) {
        const bool job = gen.next() % 2;
        const bool fractional = gen.next() % 4 == 0;
        const bool uniform = gen.next() % 2;
        const double *bits = fractional ? frac_bits : int_bits;
        const double shared_bits = bits[gen.next() % 4];
        std::vector<Producer> ps(1 + gen.next() % 8);
        for (unsigned ch = 0; ch < ps.size(); ++ch) {
            Producer &p = ps[ch];
            p.ch = ch;
            p.period = 1 + gen.next() % 200;
            p.next = 1000 + gen.next() % 400;
            p.bits = uniform ? shared_bits : bits[gen.next() % 4];
            p.oneShot = gen.next() % 4 == 0;
        }
        double max_bits = 0.0;
        for (const Producer &p : ps)
            max_bits = std::max(max_bits, p.bits);

        double start = 0.0;
        if (job) {
            start = static_cast<double>(gen.next() % 64);
            if (fractional)
                start += gen.nextDouble();
        } else {
            // Spare bits of a 1-64 entry buffer at a random level.
            const double capacity = 64.0 * (1 + gen.next() % 64);
            start = capacity * gen.nextDouble();
            if (!fractional)
                start = std::floor(start);
        }
        const double need = job ? 64.0 - start : start - max_bits;
        const Cycle bound =
            gen.next() % 3 == 0 ? kNoEvent : 1000 + gen.next() % 6000;

        const Cycle walk = walkThreshold(ps, job, start, bound);
        const Cycle closed =
            mem::MemoryController::thresholdCycle(ps, need, bound);
        const std::string label = "trial " + std::to_string(trial);
        if (!fractional && (job || uniform)) {
            EXPECT_EQ(closed, walk) << label;
            ++exact;
        } else {
            EXPECT_LE(closed, walk) << label;
        }
    }
    // Most trials demand exact agreement.
    EXPECT_GT(exact, 10000u);
}

// ---------------------------------------------------------------------
// Horizon golden: the exact advance-strategy counters and the end
// state of a small fixed grid. A horizon that moves changes the
// counters even when the fingerprint (which every strategy must
// reproduce) stays put.
// ---------------------------------------------------------------------

struct HorizonGolden
{
    const char *name;
    std::string text;              ///< Config text over SimConfig{}.
    std::vector<std::string> apps; ///< Application cores, in core order.
    double mbps;                   ///< 0 = no RNG core.
    std::uint64_t stepped, skips, skipped, drain, channelTicks,
        recomputes, fingerprint;
};

/** One core per application, then the RNG core (as perf/ builds it). */
std::vector<std::unique_ptr<cpu::TraceSource>>
makeMixTraces(const sim::SimConfig &cfg,
              const std::vector<std::string> &apps, double mbps)
{
    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    for (const std::string &app : apps)
        traces.push_back(std::make_unique<workloads::SyntheticTrace>(
            workloads::appByName(app), cfg.geometry,
            static_cast<CoreId>(traces.size()), cfg.seed));
    if (mbps > 0.0)
        traces.push_back(std::make_unique<workloads::RngBenchmark>(
            mbps, cfg.geometry, cfg.seed + traces.size()));
    return traces;
}

TEST(FastForwardGolden, HorizonCountersAndFingerprints)
{
    const workloads::WorkloadSpec mix =
        workloads::dualCorePlottedMixes(5120.0).front();
    ASSERT_EQ(mix.apps.size(), 1u);
    const std::string dual = " budget=3000000 seed=1";
    const std::string alone = " budget=10000000 seed=1";
    const std::string svc =
        "design=drstrange service.enabled=1 service.offered-mbps=10240 "
        "service.duration=400000 service.slo=500 "
        "fault.models=bitflip,weak-cell,stuck-row fault.monitor=1 "
        "fault.seed=1 seed=1";
    const workloads::WorkloadSpec eight =
        workloads::multiCoreCategoryGroup(8, 'H', 1).front();
    // Counters as of per-channel wake cycles: every loop iteration
    // probes, and the controller runs only channels with due work. The
    // fingerprints predate that change and must not move.
    const std::vector<HorizonGolden> grid = {
        {"mix/oblivious", "design=oblivious" + dual, mix.apps,
         mix.rngThroughputMbps, 61569, 45961, 394748, 61190,
         308644, 316344, 0xc7a48b5d1dfc668cull},
        {"mix/drstrange", "design=drstrange" + dual, mix.apps,
         mix.rngThroughputMbps, 82234, 29265, 191108, 45869,
         58727, 70827, 0xa5a9686f15c3b6f5ull},
        {"drange/oblivious", "design=oblivious mechanism=drange" + alone,
         {}, 2560.0, 105404, 103748, 965428, 120943,
         477939, 590099, 0xf52eafc70d0bbcecull},
        {"drange/drstrange", "design=drstrange mechanism=drange" + alone,
         {}, 2560.0, 155597, 52284, 636840, 61164,
         98492, 130004, 0x406453b9e04638a5ull},
        {"quac/oblivious", "design=oblivious mechanism=quac" + alone, {},
         2560.0, 148465, 48896, 1036002, 41645,
         63468, 72744, 0x3d84a058bfdebd6eull},
        {"quac/drstrange", "design=drstrange mechanism=quac" + alone, {},
         2560.0, 155739, 49699, 712293, 47517,
         67118, 92103, 0x36ee3eb7451af2e0ull},
        {"service/faulty", svc, {}, 0.0, 238430, 96906, 567011, 1,
         16, 20, 0x76600ca1f23120d8ull},
        // Greedy deposits, BLISS housekeeping with rank fences, a
        // non-DRAM timing model, and power-down edges.
        {"mix/greedy", "design=greedy" + dual, mix.apps,
         mix.rngThroughputMbps, 65222, 46003, 274353, 60160,
         167463, 208990, 0x1d0f33e4486a6546ull},
        {"eight/bliss-2rank",
         "design=drstrange scheduler=bliss geometry.ranks=2 "
         "mapping=row-bank-col-rank-ch budget=300000 seed=1",
         eight.apps, eight.rngThroughputMbps, 111708, 30069, 164521, 102381,
         357966, 382218, 0x57de4fe59ba5c9f4ull},
        {"mix/fixed-latency",
         "design=drstrange backend.kind=fixed-latency" + dual, mix.apps,
         mix.rngThroughputMbps, 77081, 24068, 163656, 36540,
         46455, 56155, 0x71e345769ff23744ull},
        {"mix/powerdown", "design=oblivious powerdown=20" + dual, mix.apps,
         mix.rngThroughputMbps, 61559, 45957, 394507, 61356,
         308875, 316577, 0x277a9c056bf8cb8full},
        // Outage windows: a channel-scope outage under power-down (the
        // channel's own power-down entry and horizon never see the
        // outage), a rank-scope outage on two ranks, an outage over the
        // fixed-latency row, and a two-rank fixed-latency cell whose
        // read latency exceeds write latency + gap (the fixed row
        // fences a write only `gap` cycles after a read).
        {"mix/outage-powerdown",
         "design=drstrange powerdown=20 fault.models=outage "
         "fault.outage-period=20000 fault.outage-duration=3000" + dual,
         mix.apps, mix.rngThroughputMbps, 80858, 30431, 474819, 45735,
         60142, 73009, 0x936d69085d46d625ull},
        {"mix/outage-rank-2rank",
         "design=drstrange geometry.ranks=2 mapping=row-bank-col-rank-ch "
         "fault.models=outage fault.outage-period=20000 "
         "fault.outage-duration=3000 fault.outage-scope=rank" + dual,
         mix.apps, mix.rngThroughputMbps, 85723, 25276, 162100, 284230,
         341873, 352955, 0x09072bbf1e5d58c8ull},
        {"mix/fixed-latency-outage",
         "design=drstrange backend.kind=fixed-latency fault.models=outage "
         "fault.outage-period=20000 fault.outage-duration=3000" + dual,
         mix.apps, mix.rngThroughputMbps, 77590, 24935, 408695, 36617,
         46204, 56825, 0xf9dcbd8de4e6b1cdull},
        {"mix/fixed-latency-2rank",
         "design=drstrange backend.kind=fixed-latency geometry.ranks=2 "
         "mapping=row-bank-col-rank-ch backend.read-latency=30 "
         "backend.write-latency=12 backend.gap=6" + dual,
         mix.apps, mix.rngThroughputMbps, 77301, 24173, 176832, 36015,
         44838, 55492, 0xaf2be83579c5f406ull},
        // The bank XOR permutation on two ranks: the rank digit sits
        // between the permuted bank and the row that drives the XOR.
        {"mix/permute-bank-2rank",
         "design=drstrange geometry.ranks=2 mapping=permute-bank" + dual,
         mix.apps, mix.rngThroughputMbps, 80583, 27383, 175299, 56032,
         84852, 96406, 0xf262972702b499baull},
    };
    for (const HorizonGolden &g : grid) {
        const sim::SimConfig cfg =
            sim::SimulationBuilder().applyText(g.text).config();
        sim::System sys(cfg, makeMixTraces(cfg, g.apps, g.mbps));
        sys.setFastForward(true);
        sys.run();
        const sim::System::FfStats &ff = sys.ffStats();
        EXPECT_EQ(ff.steppedCycles, g.stepped) << g.name;
        EXPECT_EQ(ff.skips, g.skips) << g.name;
        EXPECT_EQ(ff.skippedCycles, g.skipped) << g.name;
        EXPECT_EQ(ff.drainTicks, g.drain) << g.name;
        EXPECT_EQ(ff.channelTicks, g.channelTicks) << g.name;
        EXPECT_EQ(ff.horizonRecomputes, g.recomputes) << g.name;
        EXPECT_EQ(fnv1a64(sim::systemFingerprint(sys)), g.fingerprint)
            << g.name;
    }
}

} // namespace
