/**
 * @file
 * Tests for the composable policy API: design presets vs. the legacy
 * per-design expansion (frozen here as reference data), the registry
 * contract over both open registries, the SimulationBuilder facade, the
 * key=value config text format, and the Runner's configuration-keyed
 * alone-run cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "drstrange.h"
#include "workloads/rng_benchmark.h"
#include "workloads/synthetic_trace.h"

using namespace dstrange;
using namespace dstrange::sim;

namespace {

/**
 * The controller values the hand-written per-design expansion produced
 * before the policy knobs existed (fields named as the controller
 * configuration then named them).
 */
struct LegacyMcConfig
{
    std::string scheduler;
    bool rngAwareQueueing = false;
    unsigned bufferEntries = 0;
    unsigned bufferPartitions = 0;
    mem::FillMode fill = mem::FillMode::None;
    std::optional<trng::TrngMechanism> fillMechanism;
    std::string predictor = "simple";
    Cycle periodThreshold = 40;
    unsigned lowUtilThreshold = 0;
    Cycle powerDownThreshold = 0;
    bool enableParking = true;
    bool enableFillAbort = true;
    unsigned fillChannelLimit = 1;
    strange::RlIdlenessPredictor::Config rlConfig{};
};

/**
 * The legacy expansion, frozen as reference data and keyed by registry
 * key. Every preset built on the policy knobs must keep deriving
 * exactly these values.
 */
LegacyMcConfig
legacyMcConfigFor(const std::string &design, const SimConfig &cfg)
{
    LegacyMcConfig mc;
    mc.scheduler = "fr-fcfs-cap";
    mc.rngAwareQueueing = false;
    mc.bufferEntries = 0;
    mc.fill = mem::FillMode::None;
    mc.lowUtilThreshold = 0;

    const trng::TrngMechanism &fill_mech =
        cfg.fillMechanism.value_or(cfg.mechanism);
    mc.fillMechanism = cfg.fillMechanism;
    mc.periodThreshold = std::max<Cycle>(
        40, fill_mech.switchInLatency + fill_mech.roundLatency +
                fill_mech.switchOutLatency);
    mc.powerDownThreshold = cfg.powerDownThreshold;

    if (design == "oblivious") {
    } else if (design == "frfcfs") {
        mc.scheduler = "fr-fcfs";
    } else if (design == "bliss") {
        mc.scheduler = "bliss";
    } else if (design == "rng-aware") {
        mc.rngAwareQueueing = true;
    } else if (design == "greedy") {
        mc.rngAwareQueueing = true;
        mc.bufferEntries = cfg.bufferEntries;
        mc.bufferPartitions = cfg.bufferPartitions;
        mc.fill = mem::FillMode::GreedyOracle;
    } else if (design == "drstrange-nopred") {
        mc.rngAwareQueueing = true;
        mc.bufferEntries = cfg.bufferEntries;
        mc.bufferPartitions = cfg.bufferPartitions;
        mc.fill = mem::FillMode::Engine;
        mc.predictor = "none";
        mc.lowUtilThreshold = 0;
    } else if (design == "drstrange") {
        mc.rngAwareQueueing = true;
        mc.bufferEntries = cfg.bufferEntries;
        mc.bufferPartitions = cfg.bufferPartitions;
        mc.fill = mem::FillMode::Engine;
        mc.predictor = "simple";
        mc.lowUtilThreshold = cfg.lowUtilThreshold;
    } else if (design == "drstrange-nolowutil") {
        mc.rngAwareQueueing = true;
        mc.bufferEntries = cfg.bufferEntries;
        mc.bufferPartitions = cfg.bufferPartitions;
        mc.fill = mem::FillMode::Engine;
        mc.predictor = "simple";
        mc.lowUtilThreshold = 0;
    } else if (design == "drstrange-rl") {
        mc.rngAwareQueueing = true;
        mc.bufferEntries = cfg.bufferEntries;
        mc.bufferPartitions = cfg.bufferPartitions;
        mc.fill = mem::FillMode::Engine;
        mc.predictor = "rl";
        mc.lowUtilThreshold = cfg.lowUtilThreshold;
        mc.rlConfig.seed = cfg.seed * 7919 + 17;
    } else {
        ADD_FAILURE() << "no legacy expansion for design '" << design
                      << "'";
    }
    return mc;
}

/** @p a's derived controller values equal the legacy expansion @p b. */
void
expectSameMcConfig(const mem::McConfig &a, const LegacyMcConfig &b)
{
    EXPECT_EQ(a.scheduler, b.scheduler);
    EXPECT_EQ(a.rngAwareQueueing, b.rngAwareQueueing);
    EXPECT_EQ(a.bufferCapacity(), b.bufferEntries);
    // Partitions only shape a buffer that exists.
    if (a.bufferCapacity() > 0) {
        EXPECT_EQ(a.bufferPartitions, b.bufferPartitions);
    }
    EXPECT_EQ(a.fillMode(), b.fill);
    EXPECT_EQ(a.fillMechanism.has_value(), b.fillMechanism.has_value());
    if (a.fillMechanism && b.fillMechanism) {
        EXPECT_EQ(a.fillMechanism->name, b.fillMechanism->name);
        EXPECT_EQ(a.fillMechanism->bitsPerRound,
                  b.fillMechanism->bitsPerRound);
        EXPECT_EQ(a.fillMechanism->roundLatency,
                  b.fillMechanism->roundLatency);
    }
    EXPECT_EQ(a.predictor, b.predictor);
    EXPECT_EQ(a.periodThreshold(), b.periodThreshold);
    EXPECT_EQ(a.lowUtilBound(), b.lowUtilThreshold);
    EXPECT_EQ(a.powerDownThreshold, b.powerDownThreshold);
    EXPECT_EQ(a.enableParking, b.enableParking);
    EXPECT_EQ(a.enableFillAbort, b.enableFillAbort);
    EXPECT_EQ(a.fillChannelLimit, b.fillChannelLimit);
    EXPECT_EQ(a.rlConfig().seed, b.rlConfig.seed);
    EXPECT_EQ(a.rlConfig().stateBits, b.rlConfig.stateBits);
}

workloads::WorkloadSpec
dualMix(const std::string &app, double mbps = 5120.0)
{
    workloads::WorkloadSpec spec;
    spec.name = app;
    spec.apps = {app};
    spec.rngThroughputMbps = mbps;
    return spec;
}

void
expectSameResult(const Runner::WorkloadResult &a,
                 const Runner::WorkloadResult &b)
{
    EXPECT_EQ(a.busCycles, b.busCycles);
    EXPECT_EQ(a.mcStats.readRequests, b.mcStats.readRequests);
    EXPECT_EQ(a.mcStats.rngRequests, b.mcStats.rngRequests);
    EXPECT_EQ(a.mcStats.rngServedFromBuffer,
              b.mcStats.rngServedFromBuffer);
    EXPECT_EQ(a.mcStats.sumReadLatency, b.mcStats.sumReadLatency);
    EXPECT_EQ(a.mcStats.sumRngLatency, b.mcStats.sumRngLatency);
    EXPECT_EQ(a.unfairnessIndex, b.unfairnessIndex); // bit-identical
    EXPECT_EQ(a.bufferServeRate, b.bufferServeRate);
    EXPECT_EQ(a.energyNj, b.energyNj);
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].slowdown, b.cores[i].slowdown);
        EXPECT_EQ(a.cores[i].memSlowdown, b.cores[i].memSlowdown);
        EXPECT_EQ(a.cores[i].ipcShared, b.cores[i].ipcShared);
    }
}

} // namespace

// ---------------------------------------------------------------------
// Preset equivalence: builder presets == frozen legacy expansion.
// ---------------------------------------------------------------------

TEST(PresetEquivalence, McConfigMatchesLegacyExpansionForAllDesigns)
{
    for (const DesignPreset &d : kPaperDesigns) {
        SimConfig base;
        base.bufferEntries = 8;
        base.bufferPartitions = 2;
        base.lowUtilThreshold = 6;
        base.powerDownThreshold = 50;
        base.seed = 3;
        SCOPED_TRACE(d.key);

        SimConfig preset = base;
        DesignRegistry::instance().apply(d.key, preset);
        expectSameMcConfig(preset, legacyMcConfigFor(d.key, base));
    }
}

TEST(PresetEquivalence, McConfigMatchesLegacyExpansionWithHybridFill)
{
    for (const char *d : {"drstrange", "drstrange-rl"}) {
        SimConfig base;
        base.mechanism = trng::TrngMechanism::dRange();
        base.fillMechanism = trng::TrngMechanism::quacTrng();
        SCOPED_TRACE(d);

        SimConfig preset = base;
        DesignRegistry::instance().apply(d, preset);
        expectSameMcConfig(preset, legacyMcConfigFor(d, base));
    }
}

TEST(PresetEquivalence, RunnerMetricsIdenticalAcrossEnumKeyAndBuilder)
{
    SimConfig base;
    base.instrBudget = 20000;
    const auto spec = dualMix("soplex");

    for (const DesignPreset &d : kPaperDesigns) {
        SCOPED_TRACE(d.key);
        Runner by_key(base);
        const auto a = by_key.run(d.key, spec);

        Runner by_display_name(base);
        const auto b = by_display_name.run(d.displayName, spec);

        Runner by_builder(base);
        const auto c = by_builder.run(
            SimulationBuilder(base).design(d.key).config(), spec);

        expectSameResult(a, b);
        expectSameResult(a, c);
    }
}

/**
 * End-to-end: a System built from a preset must behave cycle-for-cycle
 * like a hand-driven MemoryController whose derived values match the
 * frozen legacy expansion (the strongest "same seed, same metrics"
 * guarantee).
 */
TEST(PresetEquivalence, SystemMatchesHandDrivenLegacyController)
{
    for (const char *d : {"drstrange", "greedy", "bliss", "drstrange-rl"}) {
        SCOPED_TRACE(d);
        SimConfig base;
        base.instrBudget = 15000;

        auto make_traces = [&] {
            std::vector<std::unique_ptr<cpu::TraceSource>> traces;
            traces.push_back(std::make_unique<workloads::SyntheticTrace>(
                workloads::appByName("soplex"), base.geometry, 0,
                base.seed));
            traces.push_back(std::make_unique<workloads::RngBenchmark>(
                5120.0, base.geometry, base.seed + 1));
            return traces;
        };

        // New API path.
        SimConfig preset = base;
        DesignRegistry::instance().apply(d, preset);
        auto sys_traces = make_traces();
        System sys(preset, std::move(sys_traces));
        sys.run();

        // Hand-driven path over a configuration that derives the
        // pre-refactor expansion.
        expectSameMcConfig(preset, legacyMcConfigFor(d, base));
        auto traces = make_traces();
        mem::MemoryController mc(preset, 2);
        std::vector<std::unique_ptr<cpu::Core>> cores;
        cpu::Core::Config core_cfg;
        core_cfg.instrBudget = base.instrBudget;
        for (unsigned i = 0; i < 2; ++i) {
            cores.push_back(std::make_unique<cpu::Core>(
                static_cast<CoreId>(i), core_cfg, *traces[i], mc));
        }
        mc.setCompletionCallback(
            [&](CoreId core, std::uint64_t token, mem::ReqType,
                mem::ServePath) { cores[core]->onCompletion(token); });
        Cycle now = 0;
        auto all_done = [&] {
            return std::all_of(cores.begin(), cores.end(),
                               [](const auto &c) { return c->finished(); });
        };
        while (!all_done() && now < base.maxBusCycles) {
            mc.tick(now);
            for (auto &c : cores)
                c->tickBusCycle(now);
            ++now;
        }

        EXPECT_EQ(sys.busCycles(), now);
        for (unsigned i = 0; i < 2; ++i) {
            EXPECT_EQ(sys.coreStats(i).finishCycle,
                      cores[i]->stats().finishCycle);
            EXPECT_EQ(sys.coreStats(i).instrRetired,
                      cores[i]->stats().instrRetired);
        }
        EXPECT_EQ(sys.mc().stats().rngRequests, mc.stats().rngRequests);
        EXPECT_EQ(sys.mc().stats().rngServedFromBuffer,
                  mc.stats().rngServedFromBuffer);
        EXPECT_EQ(sys.mc().stats().sumReadLatency,
                  mc.stats().sumReadLatency);
    }
}

// ---------------------------------------------------------------------
// Registry behaviour: duplicate/unknown keys, custom registration.
// ---------------------------------------------------------------------

namespace {

/**
 * One registry behind a uniform face, so the shared contract
 * (common/registry.h) is checked on both. add() registers a
 * trivial entry, or an empty one when @p empty is set; the entry runs
 * @p on_make (if any) each time make() instantiates it.
 */
struct RegistryFace
{
    const char *tag;     ///< Key-safe short name.
    const char *builtin; ///< A key registered on first access.
    std::function<void(const std::string &key, bool empty,
                       std::function<void()> on_make)>
        add;
    std::function<void(const std::string &key)> make;
    std::function<bool(const std::string &key)> contains;
    std::function<std::vector<std::string>()> keys;
};

std::vector<RegistryFace>
allRegistries()
{
    std::vector<RegistryFace> faces;
    faces.push_back(
        {"sched", "fr-fcfs-cap",
         [](const std::string &k, bool empty,
            std::function<void()> on_make) {
             mem::SchedulerFactory factory;
             if (!empty) {
                 factory = [on_make](const mem::SchedulerContext &) {
                     if (on_make)
                         on_make();
                     return std::unique_ptr<mem::Scheduler>();
                 };
             }
             mem::SchedulerRegistry::instance().add(k, std::move(factory));
         },
         [](const std::string &k) {
             const SimConfig cfg;
             mem::SchedulerRegistry::instance().make(
                 k, mem::SchedulerContext{4, 8, 2, cfg});
         },
         [](const std::string &k) {
             return mem::SchedulerRegistry::instance().contains(k);
         },
         [] { return mem::SchedulerRegistry::instance().keys(); }});
    faces.push_back(
        {"design", "drstrange",
         [](const std::string &k, bool empty,
            std::function<void()> on_make) {
             DesignRegistry::Preset preset;
             if (!empty) {
                 preset = [on_make](SimConfig &) {
                     if (on_make)
                         on_make();
                 };
             }
             DesignRegistry::instance().add(k, "", std::move(preset));
         },
         [](const std::string &k) {
             SimConfig cfg;
             DesignRegistry::instance().apply(k, cfg);
         },
         [](const std::string &k) {
             return DesignRegistry::instance().contains(k);
         },
         [] { return DesignRegistry::instance().keys(); }});
    return faces;
}

} // namespace

TEST(Registries, UnknownKeysThrowWithKnownKeysListed)
{
    for (const RegistryFace &reg : allRegistries()) {
        SCOPED_TRACE(reg.tag);
        EXPECT_FALSE(reg.contains("no-such-key"));
        try {
            reg.make("no-such-key");
            FAIL() << "expected std::out_of_range";
        } catch (const std::out_of_range &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("unknown "), std::string::npos) << msg;
            EXPECT_NE(msg.find("'no-such-key' (registered: "),
                      std::string::npos)
                << msg;
            EXPECT_NE(msg.find(reg.builtin), std::string::npos) << msg;
        }
    }

    SimConfig cfg;
    try {
        mem::SchedulerRegistry::instance().make(
            "no-such-sched",
            mem::SchedulerContext{4, 8, 2, cfg});
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range &e) {
        EXPECT_NE(std::string(e.what()).find("fr-fcfs-cap"),
                  std::string::npos);
    }
    EXPECT_THROW(DesignRegistry::instance().apply("no-such-design", cfg),
                 std::out_of_range);
}

TEST(Registries, DuplicateRegistrationThrows)
{
    for (const RegistryFace &reg : allRegistries()) {
        SCOPED_TRACE(reg.tag);
        for (const std::string &key :
             {std::string(reg.builtin), std::string(), std::string(" "),
              std::string("has space"), std::string("tab\tkey"),
              std::string("has=equals"), std::string("=")})
            EXPECT_THROW(reg.add(key, false, nullptr),
                         std::invalid_argument)
                << "'" << key << "'";
        const std::string fresh = std::string("empty-entry-") + reg.tag;
        EXPECT_THROW(reg.add(fresh, true, nullptr), std::invalid_argument);
        EXPECT_FALSE(reg.contains(fresh));
    }

    EXPECT_THROW(mem::SchedulerRegistry::instance().add(
                     "fr-fcfs",
                     [](const mem::SchedulerContext &)
                         -> std::unique_ptr<mem::Scheduler> {
                         return nullptr;
                     }),
                 std::invalid_argument);
    EXPECT_THROW(DesignRegistry::instance().add("drstrange", "dup",
                                                [](SimConfig &) {}),
                 std::invalid_argument);
    EXPECT_THROW(DesignRegistry::instance().add("", "empty",
                                                [](SimConfig &) {}),
                 std::invalid_argument);
    // Keys must survive the whitespace-tokenized config text format.
    EXPECT_THROW(DesignRegistry::instance().add("has space", "bad",
                                                [](SimConfig &) {}),
                 std::invalid_argument);
    EXPECT_THROW(mem::SchedulerRegistry::instance().add(
                     "has=equals",
                     [](const mem::SchedulerContext &)
                         -> std::unique_ptr<mem::Scheduler> {
                         return nullptr;
                     }),
                 std::invalid_argument);
}

/** A factory may register another key from inside make(): lookups
 *  release the registry lock before running the entry. */
TEST(Registries, ReentrantFactoryRegistersAnotherKey)
{
    for (const RegistryFace &reg : allRegistries()) {
        SCOPED_TRACE(reg.tag);
        const std::string outer = std::string("reentrant-") + reg.tag;
        const std::string inner = outer + "-inner";
        if (!reg.contains(outer)) {
            // Captures copies: the entry outlives this test's faces.
            reg.add(outer, false,
                    [add = reg.add, contains = reg.contains, inner] {
                        if (!contains(inner))
                            add(inner, false, nullptr);
                    });
        }
        reg.make(outer);
        EXPECT_TRUE(reg.contains(inner));
        reg.make(inner);
    }
}

/** Readers (make/contains/keys) race a writer adding distinct keys on
 *  every registry; CI runs it under ThreadSanitizer. */
TEST(Registries, ConcurrentAddAndMake)
{
    const std::vector<RegistryFace> faces = allRegistries();
    constexpr int kAdds = 100;
    constexpr int kReaders = 3;
    const auto keyFor = [](const RegistryFace &reg, int i) {
        return std::string("concurrent-") + reg.tag + "-" +
               std::to_string(i);
    };
    std::atomic<int> started{0};
    std::atomic<bool> done{false};
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&] {
            ++started;
            do {
                for (const RegistryFace &reg : faces) {
                    reg.make(reg.builtin);
                    EXPECT_TRUE(reg.contains(reg.builtin));
                    const auto keys = reg.keys();
                    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
                }
            } while (!done);
        });
    }
    while (started < kReaders)
        std::this_thread::yield();
    for (int i = 0; i < kAdds; ++i) {
        for (const RegistryFace &reg : faces) {
            if (!reg.contains(keyFor(reg, i)))
                reg.add(keyFor(reg, i), false, nullptr);
        }
    }
    done = true;
    for (std::thread &t : readers)
        t.join();
    for (const RegistryFace &reg : faces) {
        SCOPED_TRACE(reg.tag);
        for (int i = 0; i < kAdds; ++i)
            EXPECT_TRUE(reg.contains(keyFor(reg, i)));
    }
}

TEST(Registries, BuiltinsArePresent)
{
    for (const RegistryFace &reg : allRegistries()) {
        SCOPED_TRACE(reg.tag);
        const auto keys = reg.keys();
        EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
        EXPECT_NE(std::find(keys.begin(), keys.end(), reg.builtin),
                  keys.end());
        EXPECT_TRUE(reg.contains(reg.builtin));
    }

    const auto sched = mem::SchedulerRegistry::instance().keys();
    for (const char *k : {"fr-fcfs", "fr-fcfs-cap", "bliss"})
        EXPECT_NE(std::find(sched.begin(), sched.end(), k), sched.end());

    for (const DesignPreset &d : kPaperDesigns) {
        EXPECT_TRUE(DesignRegistry::instance().contains(d.key));
        EXPECT_EQ(DesignRegistry::instance().displayName(d.key),
                  d.displayName);
    }
}

TEST(Registries, UnknownSchedulerSurfacesAtSystemConstruction)
{
    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    SimConfig cfg;
    traces.push_back(std::make_unique<workloads::RngBenchmark>(
        640.0, cfg.geometry, cfg.seed));
    cfg.scheduler = "definitely-not-registered";
    EXPECT_THROW(System(cfg, std::move(traces)), std::out_of_range);
}

namespace {

/** Trivial custom scheduler: oldest issuable request, no row-hit pass. */
class OldestFirstScheduler : public mem::Scheduler
{
  public:
    explicit OldestFirstScheduler(std::uint64_t *pick_counter)
        : picks(pick_counter)
    {
    }

    int
    pick(const mem::SchedContext &ctx) override
    {
        const auto &entries = ctx.queue.all();
        int best = mem::kNoPick;
        std::uint64_t best_seq = 0;
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const mem::Request &req = entries[i];
            const dram::DramCmd cmd =
                mem::nextCommandFor(req, ctx.channel);
            if (!ctx.channel.canIssue(cmd, req.coord.bank, ctx.now))
                continue;
            if (best == mem::kNoPick || req.seq < best_seq) {
                best = static_cast<int>(i);
                best_seq = req.seq;
            }
        }
        if (best != mem::kNoPick && picks)
            ++(*picks);
        return best;
    }

    void
    onColumnIssued(const mem::Request &, unsigned) override
    {
    }

  private:
    std::uint64_t *picks;
};

std::uint64_t g_oldest_first_picks = 0;

/** One-time registration shared by the round-trip tests below. */
void
registerOldestFirst()
{
    static bool once = [] {
        mem::SchedulerRegistry::instance().add(
            "test-oldest-first", [](const mem::SchedulerContext &) {
                return std::make_unique<OldestFirstScheduler>(
                    &g_oldest_first_picks);
            });
        DesignRegistry::instance().add(
            "test-oldest-baseline", "OldestFirst", [](SimConfig &cfg) {
                DesignRegistry::instance().apply("oblivious", cfg);
                cfg.scheduler = "test-oldest-first";
            });
        return true;
    }();
    (void)once;
}

} // namespace

/**
 * Acceptance check: a scheduler registered from test code (no src/mem
 * edits) runs end-to-end through the same design-name path the CLI's
 * --design flag uses (SimulationBuilder::design(name)).
 */
TEST(Registries, CustomSchedulerRunsThroughDesignNamePath)
{
    registerOldestFirst();

    SimConfig base;
    base.instrBudget = 8000;
    SimulationBuilder builder(base);
    builder.design("test-oldest-baseline");
    EXPECT_EQ(builder.config().scheduler, "test-oldest-first");

    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    traces.push_back(std::make_unique<workloads::SyntheticTrace>(
        workloads::appByName("soplex"), builder.config().geometry, 0, 1));
    traces.push_back(std::make_unique<workloads::RngBenchmark>(
        5120.0, builder.config().geometry, 2));

    const std::uint64_t picks_before = g_oldest_first_picks;
    System sys = builder.buildSystem(std::move(traces));
    sys.run();

    EXPECT_TRUE(sys.allFinished());
    EXPECT_GT(g_oldest_first_picks, picks_before); // it actually ran
    EXPECT_GT(sys.mc().stats().readsCompleted, 0u);
}

TEST(Registries, CustomDesignRunsThroughRunnerAndConfigText)
{
    registerOldestFirst();

    SimConfig base;
    base.instrBudget = 8000;
    Runner runner(base);
    const auto res = runner.run("test-oldest-baseline", dualMix("mcf"));
    EXPECT_GT(res.busCycles, 0u);

    // The config-text design= key resolves through the same registry.
    SimConfig cfg = parseConfig("design=test-oldest-baseline");
    EXPECT_EQ(cfg.scheduler, "test-oldest-first");
    EXPECT_FALSE(cfg.buffering);
}

// ---------------------------------------------------------------------
// Config text: round-trip and error reporting.
// ---------------------------------------------------------------------

TEST(ConfigText, SerializeParseRoundTripsDefaults)
{
    const SimConfig def;
    const std::string text = serializeConfig(def);
    const SimConfig back = parseConfig(text);
    EXPECT_EQ(serializeConfig(back), text);
}

TEST(ConfigText, SerializeParseRoundTripsCustomConfig)
{
    SimConfig cfg = parseConfig("design=greedy mechanism=quac");
    cfg.fillMechanism = trng::TrngMechanism::withSystemThroughput(640.0, 4);
    cfg.bufferEntries = 32;
    cfg.bufferPartitions = 4;
    cfg.lowUtilThreshold = 7;
    cfg.powerDownThreshold = 50;
    cfg.instrBudget = 12345;
    cfg.seed = 99;
    cfg.priorities = {2, 1, 1};
    cfg.timings.tRCD = 13;
    cfg.geometry.channels = 2;
    cfg.enableParking = false;
    cfg.enableFillAbort = false;
    cfg.fillChannelLimit = 3;

    const std::string text = serializeConfig(cfg);
    const SimConfig back = parseConfig(text);
    EXPECT_EQ(serializeConfig(back), text);
    EXPECT_NE(text.find(" parking=0 fill-abort=0 fill-channels=3 "),
              std::string::npos)
        << text;
    EXPECT_FALSE(back.enableParking);
    EXPECT_FALSE(back.enableFillAbort);
    EXPECT_EQ(back.fillChannelLimit, 3u);
    EXPECT_EQ(back.fillPolicy, "greedy-oracle");
    EXPECT_EQ(back.mechanism.name, "QUAC-TRNG");
    ASSERT_TRUE(back.fillMechanism.has_value());
    EXPECT_EQ(back.fillMechanism->bitsPerRound,
              cfg.fillMechanism->bitsPerRound);
    EXPECT_EQ(back.timings.tRCD, 13u);
    EXPECT_EQ(back.geometry.channels, 2u);
    EXPECT_EQ(back.priorities, (std::vector<int>{2, 1, 1}));
    EXPECT_EQ(back.instrBudget, 12345u);
}

TEST(ConfigText, EquivalentToBuilderPresets)
{
    for (const DesignPreset &d : kPaperDesigns) {
        SCOPED_TRACE(d.key);
        const SimConfig via_text =
            parseConfig(std::string("design=") + d.key);
        const SimConfig via_builder =
            SimulationBuilder().design(d.displayName).config();
        EXPECT_EQ(serializeConfig(via_text), serializeConfig(via_builder));
    }
}

TEST(ConfigText, RejectsMalformedInput)
{
    SimConfig cfg;
    EXPECT_THROW(applyConfigText(cfg, "no-equals-sign"),
                 std::invalid_argument);
    EXPECT_THROW(applyConfigText(cfg, "unknown-key=1"),
                 std::invalid_argument);
    EXPECT_THROW(applyConfigText(cfg, "buffer-entries=abc"),
                 std::invalid_argument);
    EXPECT_THROW(applyConfigText(cfg, "buffer-entries=12x"),
                 std::invalid_argument);
    EXPECT_THROW(applyConfigText(cfg, "scheduler=not-registered"),
                 std::invalid_argument);
    EXPECT_THROW(applyConfigText(cfg, "predictor=not-registered"),
                 std::invalid_argument);
    EXPECT_THROW(applyConfigText(cfg, "fill=sideways"),
                 std::invalid_argument);
    EXPECT_THROW(applyConfigText(cfg, "mechanism=quacc"), // typo of quac
                 std::invalid_argument);
    EXPECT_THROW(applyConfigText(cfg, "fill-mechanism=dranje"),
                 std::invalid_argument);
    EXPECT_THROW(applyConfigText(cfg, "design=not-registered"),
                 std::invalid_argument);
    EXPECT_THROW(applyConfigText(cfg, "rng-aware=maybe"),
                 std::invalid_argument);
    EXPECT_THROW(applyConfigText(cfg, "timings.bogus=1"),
                 std::invalid_argument);
    EXPECT_THROW(applyConfigText(cfg, "seed=-1"), // stoull would wrap
                 std::invalid_argument);
    EXPECT_THROW(applyConfigText(cfg, "priorities=1x,2"),
                 std::invalid_argument);
    // Zero geometry sizes divide addresses by zero at run time.
    for (const char *field : {"channels", "ranks", "banks", "rows",
                              "rowbytes"}) {
        SCOPED_TRACE(field);
        EXPECT_THROW(applyConfigText(cfg, std::string("geometry.") +
                                              field + "=0"),
                     std::invalid_argument);
    }
    // Rows hold at least one cache line, for the same reason.
    EXPECT_THROW(applyConfigText(cfg, "geometry.rowbytes=63"),
                 std::invalid_argument);
    // Floating-point knobs must be finite; mechanism bits and round
    // latency positive.
    for (const char *text :
         {"mechanism.bits=nan", "mechanism.bits=inf", "mechanism.bits=-8",
          "mechanism.bits=0", "fill-mechanism.bits=nan",
          "fill-mechanism.bits=-8", "mechanism.round=0",
          "fill-mechanism.round=0", "timings.tck=inf",
          "service.offered-mbps=nan", "fault.bitflip-rate=-inf"}) {
        SCOPED_TRACE(text);
        EXPECT_THROW(applyConfigText(cfg, text), std::invalid_argument);
    }
    // Timings the channel model cannot honour are rejected once the
    // whole text has landed: tREFI <= tRFC, tRC < tRAS + tRP, tCK <= 0,
    // and a write latency so far past the read burst that the
    // read-to-write turnaround would wrap (tCWL > tCL + tBL + 2).
    for (const char *text :
         {"timings.trefi=10 timings.trfc=100", "timings.trc=20",
          "timings.tck=0", "timings.tcwl=18"}) {
        SCOPED_TRACE(text);
        SimConfig fresh;
        EXPECT_THROW(applyConfigText(fresh, text), std::invalid_argument);
    }
    // A rejected text changes nothing, so the config stays usable.
    SimConfig kept;
    EXPECT_THROW(applyConfigText(kept, "budget=5 timings.trfc=7000"),
                 std::invalid_argument);
    EXPECT_EQ(serializeConfig(kept), serializeConfig(SimConfig{}));
    EXPECT_NO_THROW(applyConfigText(kept, "budget=5"));
    // A text that repairs what its own earlier token broke is fine.
    SimConfig repaired;
    EXPECT_NO_THROW(applyConfigText(
        repaired, "timings.trfc=7000 timings.trefi=9000 timings.tcwl=17"));
    // A token's rejection carries its position; the whole-text timing
    // check is no one token's fault.
    try {
        applyConfigText(kept, " budget=5  seed=1 buffer-entries=x");
        ADD_FAILURE() << "bad token accepted";
    } catch (const ConfigTokenError &e) {
        EXPECT_EQ(e.index, 2u);
    }
    try {
        applyConfigText(kept, "timings.trfc=7000");
        ADD_FAILURE() << "inconsistent timings accepted";
    } catch (const ConfigTokenError &) {
        ADD_FAILURE() << "timing check blamed one token";
    } catch (const std::invalid_argument &) {
    }
}

/** Every registry-backed key rejects an unknown value with the
 *  registry's own message: the bad value plus the registered keys. */
TEST(ConfigText, UnknownRegistryValuesListRegisteredKeys)
{
    const struct
    {
        const char *key;
        const char *value;
        const char *builtin;
    } rows[] = {
        {"scheduler", "no-such-value", "fr-fcfs-cap"},
        {"predictor", "no-such-value", "simple"},
        {"mapping", "no-such-value", "permute-bank"},
        {"backend.kind", "no-such-value", "ddr4"},
        {"service.arrival", "no-such-value", "poisson"},
        {"service.shed", "no-such-value", "shed-tail"},
        {"fault.models", "bitflip,no-such-value", "stuck-row"},
        {"design", "no-such-value", "drstrange"},
    };
    for (const auto &row : rows) {
        SCOPED_TRACE(row.key);
        SimConfig cfg;
        try {
            applyConfigText(cfg, std::string(row.key) + "=" + row.value);
            FAIL() << "expected std::invalid_argument";
        } catch (const std::invalid_argument &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("'no-such-value' (registered: "),
                      std::string::npos)
                << msg;
            EXPECT_NE(msg.find(row.builtin), std::string::npos) << msg;
        }
    }
}

/** The closed key lists behind config text, pinned as drstrange_sim
 *  --list prints them and as an unknown key is rejected: every key of
 *  the list line is accepted and round-trips, and the rejection message
 *  is exact, so the accepted set is exactly the listed one. */
TEST(ConfigText, ClosedKeyListsKeepListLineAndUnknownKeyMessage)
{
    const struct
    {
        const char *listLine;
        const char *key;
        const char *what;
    } rows[] = {
        {"fault-models: bitflip outage stuck-row weak-cell",
         "fault.models", "fault model"},
        {"arrivals: bursty closed-loop diurnal poisson", "service.arrival",
         "arrival process"},
        {"shed-policies: shed-none shed-priority shed-tail",
         "service.shed", "shed policy"},
        {"predictors: none rl simple", "predictor", "predictor"},
    };
    for (const auto &row : rows) {
        SCOPED_TRACE(row.key);
        std::istringstream line(row.listLine);
        std::string label, value, known;
        line >> label;
        while (line >> value) {
            const SimConfig cfg =
                parseConfig(std::string(row.key) + "=" + value);
            std::string pair = " ";
            pair += row.key;
            pair += "=" + value + " ";
            EXPECT_NE(serializeConfig(cfg).find(pair), std::string::npos)
                << value;
            if (!known.empty())
                known += ", ";
            known += value;
        }
        const std::string token = std::string(row.key) + "=cosmic-ray";
        try {
            parseConfig(token);
            FAIL() << "expected std::invalid_argument";
        } catch (const std::invalid_argument &e) {
            std::string expect = "bad config token '" + token + "': ";
            expect += "unknown ";
            expect += row.what;
            expect += " 'cosmic-ray' (registered: " + known + ")";
            EXPECT_EQ(std::string(e.what()), expect);
        }
    }
}

TEST(ConfigText, WhitespaceMechanismNameStaysParseable)
{
    SimConfig cfg;
    cfg.mechanism.name = "my custom mech";
    const SimConfig back = parseConfig(serializeConfig(cfg));
    EXPECT_EQ(back.mechanism.name, "my-custom-mech");
}

/**
 * Seeded byte-mutation robustness (a plain loop standing in for a
 * fuzzer): every mutation of a non-default config's text either parses
 * or throws std::invalid_argument, and every accepted text is a fixed
 * point of serialize-after-parse.
 */
TEST(ConfigText, MutatedTextParsesOrRejectsCleanly)
{
    SimConfig base = parseConfig("design=drstrange-rl mechanism=quac");
    base.fillMechanism = trng::TrngMechanism::dRange();
    base.priorities = {2, -1, 3};
    base.service.enabled = true;
    base.service.arrival = "bursty";
    base.service.burstFactor = 2.5;
    base.fault.models = "bitflip,outage";
    base.fault.bitflipRate = 0.125;
    base.geometry.ranksPerChannel = 2;
    base.traceRecord = "tape.bin";
    const std::string seed_text = serializeConfig(base);

    // Bytes the grammar gives meaning to, plus arbitrary ones.
    const std::string special = "= ,.-+0123456789eExnaif\t";
    std::mt19937_64 rng(2022);
    constexpr int kCases = 20000;
    int accepted = 0;
    for (int c = 0; c < kCases; ++c) {
        std::string text = seed_text;
        const int ops = 1 + static_cast<int>(rng() % 3);
        for (int op = 0; op < ops; ++op) {
            std::size_t pos = rng() % (text.size() + 1);
            // Every other case aims at a value, where a mutation is
            // likelier to survive parsing and test the fixed point.
            if (c % 2 == 0) {
                const std::size_t eq = text.find('=', pos);
                if (eq != std::string::npos)
                    pos = std::min(eq + 1 + rng() % 3, text.size());
            }
            const char byte =
                rng() % 2 ? special[rng() % special.size()]
                          : static_cast<char>(rng() % 256);
            switch (rng() % 3) {
            case 0: // flip: one bit or a whole-byte replacement
                if (pos < text.size())
                    text[pos] = rng() % 2
                                    ? static_cast<char>(
                                          text[pos] ^ (1 << (rng() % 8)))
                                    : byte;
                break;
            case 1:
                text.insert(pos, 1, byte);
                break;
            default:
                if (pos < text.size())
                    text.erase(pos, 1);
                break;
            }
        }
        SimConfig parsed;
        try {
            parsed = parseConfig(text);
        } catch (const std::invalid_argument &) {
            continue;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "case " << c << " threw a non-invalid_argument "
                          << "exception: " << e.what() << "\ntext: " << text;
            continue;
        }
        ++accepted;
        const std::string once = serializeConfig(parsed);
        std::string twice;
        try {
            twice = serializeConfig(parseConfig(once));
        } catch (const std::exception &e) {
            ADD_FAILURE() << "case " << c << ": serialization of an "
                          << "accepted text does not parse: " << e.what()
                          << "\ntext: " << once;
            continue;
        }
        EXPECT_EQ(once, twice) << "case " << c << " is not a fixed point";
    }
    // Both branches must be exercised for the loop to mean anything.
    EXPECT_GT(accepted, kCases / 50);
    EXPECT_LT(accepted, kCases);
}

TEST(ConfigText, BuilderFromTextMatchesFluentCalls)
{
    SimConfig base;
    base.seed = 7;
    const SimulationBuilder fluent =
        SimulationBuilder(base).design("drstrange-rl");
    const SimulationBuilder parsed =
        SimulationBuilder::fromText("design=drstrange-rl seed=7");
    EXPECT_EQ(fluent.toText(), parsed.toText());
    const SimulationBuilder applied =
        SimulationBuilder().design("drstrange-rl").applyText("seed=7");
    EXPECT_EQ(applied.toText(), parsed.toText());
}

// ---------------------------------------------------------------------
// Runner alone-run cache: keyed on the full effective configuration.
// ---------------------------------------------------------------------

TEST(RunnerCache, RunWithExplicitConfigHonoursItsSeed)
{
    SimConfig base;
    base.instrBudget = 10000;
    Runner runner(base);
    const auto spec = dualMix("soplex");

    SimConfig reseeded = base;
    DesignRegistry::instance().apply("drstrange", reseeded);
    reseeded.seed = 1234; // must reseed the generated traces too
    const auto a = runner.run(reseeded, spec);
    const auto b = runner.run("drstrange", spec);
    EXPECT_NE(a.busCycles, b.busCycles);
}

TEST(RunnerCache, AloneRunRecomputedWhenTimingsChange)
{
    SimConfig base;
    base.instrBudget = 10000;
    Runner runner(base);

    const double before = runner.alone("soplex").execCpuCycles;
    runner.base().timings.tRCD = 22; // was 11; memory gets slower
    runner.base().timings.tRC = 50;
    const double after = runner.alone("soplex").execCpuCycles;
    EXPECT_GT(after, before); // a stale cache would return `before`
}

TEST(RunnerCache, AloneRngRecomputedWhenBufferConfigChanges)
{
    SimConfig base;
    base.instrBudget = 10000;
    Runner runner(base);

    const double with_buffer =
        runner.aloneRng(5120.0, "drstrange").execCpuCycles;
    runner.base().bufferEntries = 1;
    const double tiny_buffer =
        runner.aloneRng(5120.0, "drstrange").execCpuCycles;
    EXPECT_NE(with_buffer, tiny_buffer);
}

TEST(RunnerCache, AloneRunRecomputedWhenFillMechanismChanges)
{
    SimConfig base;
    base.instrBudget = 10000;
    Runner runner(base);

    const double drange =
        runner.aloneRng(5120.0, "drstrange").execCpuCycles;
    runner.base().fillMechanism = trng::TrngMechanism::quacTrng();
    const double hybrid =
        runner.aloneRng(5120.0, "drstrange").execCpuCycles;
    EXPECT_NE(drange, hybrid);
}
