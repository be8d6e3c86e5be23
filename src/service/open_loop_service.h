/**
 * @file
 * Open-loop RNG-as-a-service driver: multiplexes the configured
 * arrival process's logical clients onto one extra memory-controller
 * request port and tracks every request's lifecycle (arrival ->
 * backlog -> controller enqueue -> completion), recording end-to-end
 * latency into a deterministic LatencyHistogram. Unlike the
 * closed-loop cores, the backlog is unbounded: offered load beyond the
 * system's capacity piles up and shows as tail-latency collapse — the
 * saturation behaviour the SloReport quantifies.
 */

#ifndef DSTRANGE_SERVICE_OPEN_LOOP_SERVICE_H
#define DSTRANGE_SERVICE_OPEN_LOOP_SERVICE_H

#include <deque>
#include <unordered_map>

#include "common/latency_histogram.h"
#include "common/types.h"
#include "mem/memory_controller.h"
#include "service/arrival_process.h"
#include "service/service_config.h"
#include "service/shed_policy.h"

namespace dstrange::service {

/** Lifecycle counters of one service run (all exact integers). */
struct ServiceStats
{
    std::uint64_t offered = 0;   ///< Arrivals generated in the window.
    std::uint64_t shed = 0;      ///< Arrivals refused by admission control.
    std::uint64_t issued = 0;    ///< Accepted by the memory controller.
    std::uint64_t completed = 0; ///< Completions delivered.
    std::uint64_t overSlo = 0;   ///< Completions above the SLO target.
    std::uint64_t servedBuffer = 0;  ///< Completions tagged Buffer.
    std::uint64_t servedStaging = 0; ///< Completions tagged Staging.
    std::uint64_t servedEngine = 0;  ///< Completions tagged Engine.
    std::uint64_t maxBacklog = 0;    ///< Peak backlog depth observed.
    Cycle lastCompletion = 0;        ///< Cycle of the last completion.
    /** End-to-end latency (arrival to completion, backlog included). */
    LatencyHistogram latency;
};

/**
 * The driver. Owned by sim::System when ServiceConfig::enabled; ticks
 * before the memory controller each bus cycle and participates in the
 * fast-forward horizon protocol like any other component.
 */
class OpenLoopService
{
  public:
    /**
     * @param port the CoreId of the extra controller port this driver
     *        issues on (System uses the first id past the real cores).
     */
    OpenLoopService(const ServiceConfig &config, CoreId port,
                    mem::MemoryController &controller,
                    std::uint64_t seed);

    /** Generate due arrivals and drain the backlog into the MC. */
    void tick(Cycle now);

    /**
     * Earliest cycle >= @p now this driver does non-batchable work:
     * now while a backlog waits and the controller accepts RNG
     * requests, else the next pending arrival (clamped so the
     * generation-window close itself is an event).
     */
    Cycle nextEventCycle(Cycle now) const;

    /** Quiescent spans carry no per-cycle service state. */
    void fastForward(Cycle from, Cycle to);

    /** Completion callback (routed by sim::System via the port id). */
    void onCompletion(std::uint64_t token, Cycle now,
                      mem::ServePath path);

    /** Generation window closed, backlog empty, nothing in flight. */
    bool drained() const;

    const ServiceStats &stats() const { return statistics; }
    const ServiceConfig &config() const { return cfg; }
    CoreId port() const { return portId; }
    std::size_t backlogDepth() const { return backlog.size(); }
    /** Backlog bound the shed policy was built with (0-auto resolved). */
    std::uint64_t shedLimit() const { return resolvedShedLimit; }

    /** Offered-load conversion: mean cycles between 64-bit requests. */
    static double
    meanGapCycles(double offered_mbps)
    {
        return (64.0 * kBusFreqHz) /
               (offered_mbps > 1e-9 ? offered_mbps * 1e6 : 1e-3);
    }

  private:
    ServiceConfig cfg;
    CoreId portId;
    mem::MemoryController &mc;
    ArrivalProcess arrival;
    std::uint64_t resolvedShedLimit;
    /** Admission control applied as each arrival is generated. */
    ShedPolicy shedPolicy;
    std::uint64_t arrivalIndex = 0; ///< Generated-arrival ordinal.
    /** Logical arrival cycles awaiting controller admission. */
    std::deque<Cycle> backlog;
    /** token -> logical arrival cycle of requests inside the MC. */
    std::unordered_map<std::uint64_t, Cycle> inflight;
    std::uint64_t nextToken = 1;
    bool doneGenerating = false;
    ServiceStats statistics;
};

} // namespace dstrange::service

#endif // DSTRANGE_SERVICE_OPEN_LOOP_SERVICE_H
