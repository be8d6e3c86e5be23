/**
 * @file
 * Experiment runner: builds systems from workload specs, runs them, and
 * derives the paper's metrics. Alone-run baselines are cached so sweeps
 * over designs and workload sets stay fast; the cache is thread-safe so
 * one Runner can serve every worker of a sim::SweepRunner fan-out.
 */

#ifndef DSTRANGE_SIM_RUNNER_H
#define DSTRANGE_SIM_RUNNER_H

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plane.h"
#include "service/slo_report.h"
#include "sim/metrics.h"
#include "sim/system.h"
#include "workloads/mixes.h"

namespace dstrange::sim {

class ResultStore;

/**
 * Orchestrates workload execution and metric computation.
 *
 * run() and the alone() accessors may be called concurrently from
 * multiple threads; every run is a pure function of its configuration
 * and workload spec, so results are bit-identical whether cells execute
 * serially or in parallel. Only base() and setResultStore() mutation is
 * single-threaded.
 */
class Runner
{
  public:
    /** Per-core outcome of one workload run. */
    struct CoreResult
    {
        std::string app;
        bool isRng = false;
        double slowdown = 1.0;    ///< Execution time vs. alone.
        double memSlowdown = 1.0; ///< MCPI vs. alone.
        double ipcShared = 0.0;
        double ipcAlone = 0.0;
        double rngStallFraction = 0.0; ///< RNG stall share of runtime.
    };

    /** Aggregate outcome of one workload run. */
    struct WorkloadResult
    {
        std::string name;
        std::string group;
        std::vector<CoreResult> cores;
        double unfairnessIndex = 1.0;
        /** Raw weighted speedup over the non-RNG applications. */
        double weightedSpeedupNonRng = 0.0;
        double bufferServeRate = 0.0;
        double predictorAccuracy = -1.0; ///< -1 when no predictor.
        Cycle busCycles = 0;
        double energyNj = 0.0;
        mem::McStats mcStats{};
        /** Strict-idle period lengths across all channels (Fig. 5/18);
         *  populated only when setCollectIdlePeriods(true). */
        std::vector<std::uint32_t> idlePeriods;
        /** Tail-latency/SLO report of the open-loop service layer;
         *  present only when the run's config enables it. */
        std::optional<service::SloReport> service;
        /** Fault-injection/mitigation counters; present only when the
         *  run's config lists cell-level fault models. */
        std::optional<fault::FaultReport> fault;

        /** Mean slowdown of the non-RNG applications. */
        double avgNonRngSlowdown() const;

        /** Slowdown of the RNG application (1.0 if none). */
        double rngSlowdown() const;
    };

    /** Runs with the persistent cache from DS_CACHE_DIR when that is
     *  set (see ResultStore); in-memory caching always applies. */
    explicit Runner(SimConfig base);

    /** Like Runner(base), but with an explicit persistent alone-run
     *  cache (nullptr = none), ignoring DS_CACHE_DIR. */
    Runner(SimConfig base, std::shared_ptr<ResultStore> store);

    /**
     * Run one workload under a design registered in sim::DesignRegistry
     * (built-in preset keys like "drstrange" or user-registered ones).
     * @throws std::out_of_range on an unknown design name.
     */
    WorkloadResult run(const std::string &design,
                       const workloads::WorkloadSpec &spec);

    /**
     * Run one workload under an explicit configuration (arbitrary
     * policy-knob combinations). Execution-time slowdowns are
     * normalized to RNG-oblivious alone runs derived from @p cfg
     * itself (same seed, timings, geometry), so custom configurations
     * get consistent metrics; the alone-run cache is shared across all
     * run() overloads.
     */
    WorkloadResult run(const SimConfig &cfg,
                       const workloads::WorkloadSpec &spec);

    /**
     * Alone-run baseline of a non-RNG application (cached).
     *
     * Execution-time slowdowns (the paper's Fig. 1/6/8 y-axes) are
     * normalized to the RNG-oblivious baseline alone run; the MCPI-based
     * memory slowdown feeding the unfairness index is normalized to the
     * alone run *on the same design* (Section 7's "when the application
     * runs alone"), so pass the design under evaluation for the latter.
     */
    const AloneResult &alone(const std::string &app_name,
                             const std::string &design = "oblivious");

    /** Alone-run baseline of the RNG benchmark (cached). */
    const AloneResult &aloneRng(double mbps,
                                const std::string &design = "oblivious");

    /**
     * Mutable base configuration (mechanism, budget, seed, ...). Not
     * thread-safe: mutate only between sweeps, never while another
     * thread is inside run()/alone().
     */
    SimConfig &base() { return baseCfg; }

    /**
     * Collect each run's idle-period distribution into
     * WorkloadResult::idlePeriods (off by default; the vectors can be
     * large). Set before a sweep, like base() mutation.
     */
    void setCollectIdlePeriods(bool collect)
    {
        collectIdlePeriods = collect;
    }

    /**
     * Attach (or with nullptr, detach) a persistent alone-run cache.
     * Baselines already computed are consulted from disk before being
     * simulated, and newly computed ones are written back; the
     * in-memory cache sits in front, so each key touches the store at
     * most once per Runner. Like base(), set only between runs.
     */
    void setResultStore(std::shared_ptr<ResultStore> store)
    {
        persistent = std::move(store);
    }

    /** The attached persistent cache, or nullptr. */
    const std::shared_ptr<ResultStore> &resultStore() const
    {
        return persistent;
    }

    /** Alone simulations this Runner ran; cache hits and single-core
     *  runs serving as their own baseline (see run()) do not count. */
    std::uint64_t aloneSimulations() const { return aloneRuns.load(); }

  private:
    std::unique_ptr<cpu::TraceSource>
    makeAppTrace(const std::string &name, CoreId core,
                 const SimConfig &cfg) const;
    std::unique_ptr<cpu::TraceSource>
    makeRngTrace(double mbps, CoreId core, const SimConfig &cfg) const;
    /** Alone-run config over @p from (priorities cleared, the
     *  registered @p design preset applied). */
    static SimConfig aloneConfig(const SimConfig &from,
                                 const std::string &design = "oblivious");
    const AloneResult &aloneApp(const std::string &app_name,
                                const SimConfig &alone_cfg,
                                const System *self = nullptr);
    const AloneResult &aloneRngImpl(double mbps,
                                    const SimConfig &alone_cfg,
                                    const System *self = nullptr);
    /** @p self, when given, is a finished single-core run under the
     *  keyed alone config itself: a miss takes its result instead of
     *  calling @p compute to simulate the same run again. */
    const AloneResult &
    cachedAlone(const std::string &key, const System *self,
                const std::function<AloneResult()> &compute);
    /**
     * Run one trace alone. @p make_trace is invoked once normally and
     * twice under DS_LOCKSTEP (the cross-check needs an identical fresh
     * trace for the step-1 reference system).
     */
    AloneResult
    runAlone(const std::function<std::unique_ptr<cpu::TraceSource>()>
                 &make_trace,
             const SimConfig &cfg);

    SimConfig baseCfg;
    bool collectIdlePeriods = false;
    std::shared_ptr<ResultStore> persistent; ///< Optional disk cache.
    std::atomic<std::uint64_t> aloneRuns{0}; ///< See aloneSimulations().

    /**
     * Alone-run baselines keyed on the trace identity plus the *full*
     * canonical serialization of the effective configuration, so
     * mutating base() between runs (buffer size, thresholds, timings,
     * fill mechanism, ...) can never serve a stale baseline.
     *
     * The cache is safe under concurrent run()/alone() calls (the
     * SweepRunner fan-out): entries live behind stable pointers in a
     * sharded mutex-guarded map, and each entry carries a once-flag so
     * two threads needing the same baseline compute it exactly once —
     * the loser blocks on the winner instead of duplicating a full
     * alone simulation or racing on the slot.
     */
    struct AloneEntry
    {
        std::once_flag once;
        AloneResult result;
    };
    struct AloneShard
    {
        std::mutex mu;
        std::map<std::string, std::unique_ptr<AloneEntry>> entries;
    };
    static constexpr std::size_t kAloneShards = 16;
    std::array<AloneShard, kAloneShards> aloneCache;
};

} // namespace dstrange::sim

#endif // DSTRANGE_SIM_RUNNER_H
